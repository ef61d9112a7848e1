(* tawabench: the repository benchmark.

   It drives the existing libraries through their public entry points
   and changes none of them. Three workloads stress different layers:

   - sweep: the paper's evaluation points (Fig. 8 GEMM shapes x f16/f8,
     Fig. 10 attention shapes x causal/full) in timing mode on
     [Config.h100]. Each candidate of [Autotune.space] runs
     [Flow.compile] -> [Statcheck.occupancy] (GEMM only; rejected
     candidates are pruned) -> [Engine.prepare] -> [Launch.estimate].
     Compile and decode caches are cleared at the start of every sweep.
     Simulation dominates; programs repeat across K, so compile misses
     are a small share.
   - compile: cold compiles with no simulation. The four example [.tw]
     sources through [Elaborate.compile_string] under each
     [Flow.strategy], plus every [Autotune.space] candidate of GEMM
     f16/f8 and attention causal/full at one shape. Each kernel is
     compiled (a miss; caches cleared every round), checked
     ([Flow.check_compiled]) and sized ([Statcheck.occupancy_report]),
     then compiled once more as a cache hit.
   - graph: functional task graphs. Each session builds the three
     [Gallery] demos, opens a fresh [Tunestore], runs
     [Autotune.search ~store] for every node's family, instantiates the
     graphs from the store and replays them many times. The only
     workload with real tile payloads and tuning-store traffic.

   Every workload runs on one domain. On two, the graph workload's
   replay and cold-start times spread by 14-21% between runs on a
   shared 2-vCPU host (the load on the second vCPU comes and goes),
   too close to the bounds to detect a change.

   Usage (from the repository root, after [dune build]):
     main.exe --workload sweep|compile|graph|all --seed N --seconds S
              --trace 0|1 [--commit ID]
     main.exe --selftest

   The seed shuffles the order of the operations and picks the oracle
   samples; the work itself is the same for every seed. Each run repeats
   its round (a sweep, a compile pass, a graph session) until --seconds
   have passed; the end-to-end host times take every unit of work at
   its fastest round and are scaled to a reference host speed measured
   by calib.exe (see [e2e_of] and [cal_ref]). With --trace 0 the last
   stdout line carries the end-to-end metrics; with --trace 1 the run
   measures half its time untraced and half traced, and carries the
   per-layer metrics. Every run writes a report (settings, rounds,
   raw and scaled metrics, ledger, spans) to .tawabench/. *)

open Tawa_tensor
module Config = Tawa_gpusim.Config
module Engine = Tawa_gpusim.Engine
module Launch = Tawa_gpusim.Launch
module Decode = Tawa_gpusim.Decode
module Flow = Tawa_core.Flow
module Autotune = Tawa_core.Autotune
module Workloads = Tawa_core.Workloads
module Pool = Tawa_pool.Pool
module Progcache = Tawa_machine.Progcache
module Tunestore = Tawa_machine.Tunestore
module Codegen = Tawa_machine.Codegen
module Isa = Tawa_machine.Isa
module Resources = Tawa_machine.Resources
module Arefcheck = Tawa_analysis.Arefcheck
module Statcheck = Tawa_analysis.Statcheck
module Diagnostic = Tawa_analysis.Diagnostic
module Elaborate = Tawa_frontend.Elaborate
module Kernel = Tawa_ir.Kernel
module Graph = Tawa_graph.Graph
module Gallery = Tawa_graph.Gallery
module Registry = Tawa_obs.Registry
module Json = Tawa_obs.Json

let now = Span.now
let out_dir = ".tawabench"

(* ------------------------------ helpers ---------------------------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Nearest-rank percentile; the median averages the two middle values. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if p = 0.5 && n mod 2 = 0 then (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median = percentile 0.5
let bits = Int64.bits_of_float

let instr_count (p : Isa.program) =
  List.fold_left (fun n (s : Isa.stream) -> n + Array.length s.Isa.instrs) 0 p.Isa.streams

let feasible = function Resources.Feasible _ -> true | Resources.Infeasible _ -> false

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ------------------------------ settings --------------------------- *)

(* Every process-wide knob a stray TAWA_* variable could flip is set
   through its public setter and recorded in the report. *)
let domains = 1

let pin ~(mode : Config.mode) : (string * string) list =
  Registry.set_clock Unix.gettimeofday;
  Engine.set_forced (Some Config.Decoded);
  Config.set_default_engine (Some Config.Decoded);
  Config.set_default_mode (Some mode);
  Pool.set_default_domains (Some domains);
  Launch.set_replication_enabled true;
  Arefcheck.set_enabled false;
  Statcheck.set_mode Statcheck.Warn;
  Progcache.set_enabled true;
  Decode.set_opts_enabled true;
  [ ("engine", "decoded"); ("mode", Config.mode_to_string mode);
    ("domains", string_of_int domains); ("replication", "on");
    ("arefcheck", "off"); ("statcheck", "warn"); ("progcache", "on");
    ("timing_opts", "on") ]

(* ------------------------ traced library calls --------------------- *)

(* (pass, seconds, calls) from the pass manager's registry timers. *)
let pass_totals () =
  let snap = Registry.snapshot () in
  List.filter_map
    (fun (name, v) ->
      let suffix = ".seconds" in
      let n = String.length name and s = String.length suffix in
      match v with
      | Registry.Float f
        when n > 7 + s && String.sub name 0 7 = "passes."
             && String.sub name (n - s) s = suffix ->
        let pass = String.sub name 0 (n - s) in
        let calls =
          match List.assoc_opt (pass ^ ".calls") snap with
          | Some (Registry.Int c) -> c
          | _ -> 0
        in
        Some (pass, (f, calls))
      | _ -> None)
    snap

let pass_base = ref []
let pass_calls : (string, int) Hashtbl.t = Hashtbl.create 8

(* The pass manager times its passes in the registry; after a call that
   may have run the pipeline, its deltas become child spans (one per
   pass, covering every run of that pass inside the call). *)
let pass_children () =
  if !Span.on then begin
    let cur = pass_totals () in
    let parts =
      List.filter_map
        (fun (name, (t, calls)) ->
          let t0, c0 = Option.value ~default:(0.0, 0) (List.assoc_opt name !pass_base) in
          if calls > c0 then begin
            Hashtbl.replace pass_calls name
              (calls - c0 + Option.value ~default:0 (Hashtbl.find_opt pass_calls name));
            Some (name, t -. t0)
          end
          else None)
        cur
    in
    pass_base := cur;
    Span.add_children parts
  end

let flow_misses () = (Flow.cache_stats ()).Progcache.misses
let decode_misses () = (Engine.decode_cache_stats ()).Progcache.misses

(** [Flow.compile], classified as a cache hit or miss. *)
let flow_compile options kernel : Flow.compiled * bool =
  let m0 = flow_misses () in
  let missed () = flow_misses () > m0 in
  let c =
    Span.time "flow.compile"
      ~rename:(fun _ -> if missed () then "flow.compile_miss" else "flow.compile_hit")
      (fun () -> Flow.compile ~options kernel)
  in
  let m = missed () in
  if m then pass_children ();
  (c, m)

let engine_prepare cfg program =
  let m0 = decode_misses () in
  Span.time "engine.prepare"
    ~rename:(fun _ ->
      if decode_misses () > m0 then "engine.prepare_miss" else "engine.prepare_hit")
    (fun () -> Engine.prepare ~cfg program)

(* Host speed. Besides bursts, the shared machine's speed drifts by
   tens of percent over minutes, on every core at once, and no estimator
   inside one run can see that. About once a second, between operations,
   the benchmark runs calib.exe, a fixed probe that shares no code with
   the program, and keeps the probe's fastest time in the run. The
   end-to-end host times are reported at the speed at which the probe
   takes [cal_ref] seconds (about its time on a quiet 2-vCPU 2.1 GHz
   host): raw time x cal_ref / fastest probe. The report keeps the raw
   values beside them ("raw.*"). *)
let cal_ref = 0.015

let calibrate () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some t when t > 0.0 -> t
  | _ -> failwith "tawabench: calib.exe failed"

(* Set-up time: a fresh process that starts, pins the settings, builds
   the workload's inputs and exits. [setup_runs] of them are spread over
   the run (one per tick) and the median is reported. *)
let setup_runs = 15

let setup_child ~workload ~seed () =
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--setup-only"; "--workload"; workload; "--seed";
         string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> now () -. t0
  | _ -> failwith "tawabench: set-up process failed"

let probes : float list ref = ref []
let setups : float list ref = ref []
let setup_of : (unit -> float) ref = ref (fun () -> nan)
let last_tick = ref neg_infinity

(* Called between operations: at most once a second, one probe and,
   until there are enough, one set-up sample. *)
let tick () =
  if now () -. !last_tick >= 1.0 then begin
    probes := Span.time "probe" calibrate :: !probes;
    if List.length !setups < setup_runs then
      setups := Span.time "setup" !setup_of :: !setups;
    last_tick := now ()
  end

(* ------------------------------ rounds ----------------------------- *)

(* One round is one sweep, one compile pass or one graph session. Its
   counts must repeat exactly from round to round and seed to seed. *)
type round = {
  wall : float; (* seconds, the round's timed region *)
  times : float array;
      (* seconds per unit of work; unit [i] is the same work every round
         (nan when it raised) *)
  is_op : bool array; (* the unit is an operation (not pruned work) *)
  is_cold : bool array; (* the unit paid a compile-cache miss *)
  counts : (string * int) list;
  geomean : float; (* sweep: simulated TFLOPS geomean; nan elsewhere *)
  attempted : int;
  failed : int;
}

type workload = {
  wname : string;
  mode : Config.mode;
  (* Build the inputs; returns the round function and a teardown. *)
  setup : seed:int -> (int -> round) * (unit -> unit);
}

(* ------------------------------- sweep ----------------------------- *)

type point = {
  shape : int;
  gemm : bool;
  kernel : Kernel.t;
  options : Flow.options;
  grid : int * int * int;
  params : Tawa_gpusim.Sim.rt list;
  flops : float;
  rep_pid : int array;
}

let sweep_families () : Autotune.family list =
  List.concat_map
    (fun dtype ->
      List.map (fun k -> Autotune.Gemm (Workloads.paper_gemm ~dtype k)) Workloads.paper_gemm_ks)
    [ Dtype.F16; Dtype.F8E4M3 ]
  @ List.concat_map
      (fun causal ->
        List.map
          (fun len -> Autotune.Attention (Workloads.paper_mha ~causal len))
          Workloads.paper_mha_lens)
      [ false; true ]

let point_of shape family (c : Autotune.candidate) : point =
  let kernel = Autotune.kernel_of family c and options = Autotune.options_of c in
  match family with
  | Autotune.Gemm s ->
    let grid, params = Workloads.gemm_launch s ~tiles:c.Autotune.tiles in
    { shape; gemm = true; kernel; options; grid; params;
      flops = Workloads.gemm_flops s; rep_pid = [| 0; 0; 0 |] }
  | Autotune.Attention s ->
    (* Causal attention simulates the median-work tile, as the
       autotuner does. *)
    let bm = c.Autotune.tiles.Tawa_frontend.Kernels.block_m in
    let grid, params = Workloads.mha_launch s ~block_m:bm in
    let rep_pid =
      if s.Workloads.causal then [| max 0 ((s.Workloads.len / bm / 2) - 1); 0; 0 |]
      else [| 0; 0; 0 |]
    in
    { shape; gemm = false; kernel; options; grid; params;
      flops = Workloads.mha_flops s; rep_pid }

let estimate (p : point) (c : Flow.compiled) =
  Launch.estimate ~rep_pid:p.rep_pid ~cfg:Config.h100 c.Flow.program ~params:p.params
    ~grid:p.grid ~flops:p.flops

let oracle_sample = 8

let sweep_setup ~seed =
  let families = Array.of_list (sweep_families ()) in
  let points =
    Array.of_list
      (List.concat
         (List.mapi
            (fun shape f -> List.map (point_of shape f) (Autotune.space f))
            (Array.to_list families)))
  in
  let points = shuffle (Random.State.make [| seed |]) points in
  let round r =
    Flow.clear_cache ();
    Engine.clear_decode_cache ();
    let n = Array.length points in
    let best = Array.make (Array.length families) 0.0 in
    let cycles = Array.make n nan in
    let times = Array.make n nan in
    let is_op = Array.make n false and is_cold = Array.make n false in
    let accepted = ref 0 and pruned = ref 0 and failed = ref 0 and instrs = ref 0 in
    let f0 = Flow.cache_stats () and d0 = Engine.decode_cache_stats () in
    let t0 = now () in
    Array.iteri
      (fun i p ->
        tick ();
        let s = now () in
        match
          let c, missed = flow_compile p.options p.kernel in
          if
            p.gemm
            && not
                 (Span.time "statcheck" (fun () ->
                      feasible (Statcheck.occupancy c.Flow.transformed)))
          then None
          else begin
            ignore (engine_prepare Config.h100 c.Flow.program);
            let i0 = Engine.instructions_retired () in
            let t = Span.time "launch.estimate" (fun () -> estimate p c) in
            instrs := !instrs + (Engine.instructions_retired () - i0);
            Some (t, missed)
          end
        with
        | None ->
          times.(i) <- now () -. s;
          incr pruned
        | Some (t, missed) ->
          times.(i) <- now () -. s;
          is_op.(i) <- true;
          is_cold.(i) <- missed;
          incr accepted;
          cycles.(i) <- t.Launch.cycles;
          best.(p.shape) <- Float.max best.(p.shape) t.Launch.tflops
        | exception e ->
          incr failed;
          Printf.eprintf "sweep: point %d raised %s\n%!" i (Printexc.to_string e))
      points;
    let wall = now () -. t0 in
    let f1 = Flow.cache_stats () and d1 = Engine.decode_cache_stats () in
    (* Oracle: a seeded sample of points re-run on the reference engine
       must reproduce the decoded cycles and stall profile bit for bit. *)
    let rng = Random.State.make [| seed; r |] in
    let done_ =
      Array.of_list (List.filter (fun i -> is_op.(i)) (List.init n Fun.id))
    in
    let sample =
      Array.sub (shuffle rng done_) 0 (min oracle_sample (Array.length done_))
    in
    let mismatches =
      Span.time "oracle.reference_engine" (fun () ->
          Array.fold_left
            (fun bad i ->
              let p = points.(i) in
              let c = Flow.compile ~options:p.options p.kernel in
              let dec = estimate p c in
              Engine.set_forced (Some Config.Reference);
              let refr =
                Fun.protect
                  ~finally:(fun () -> Engine.set_forced (Some Config.Decoded))
                  (fun () -> estimate p c)
              in
              let ok =
                bits refr.Launch.cycles = bits cycles.(i)
                && bits dec.Launch.cycles = bits cycles.(i)
                && compare refr.Launch.profile dec.Launch.profile = 0
              in
              if not ok then Printf.eprintf "sweep: engine oracle mismatch at point %d\n%!" i;
              if ok then bad else bad + 1)
            0 sample)
    in
    let geomean =
      exp
        (Array.fold_left (fun a b -> a +. log b) 0.0 best
        /. float (Array.length best))
    in
    {
      wall;
      times;
      is_op;
      is_cold;
      counts =
        [ ("points", !accepted); ("statcheck.pruned", !pruned);
          ("flow.compile_misses", f1.Progcache.misses - f0.Progcache.misses);
          ("flow.compile_hits", f1.Progcache.hits - f0.Progcache.hits);
          ("engine.decode_misses", d1.Progcache.misses - d0.Progcache.misses);
          ("engine.decode_hits", d1.Progcache.hits - d0.Progcache.hits);
          ("launch.sim_instructions", !instrs);
          ("pool.domains_spawned", Pool.domains_spawned ()) ];
      geomean;
      attempted = n;
      failed = !failed + mismatches;
    }
  in
  (round, fun () -> ())

(* ------------------------------ compile ---------------------------- *)

type source = Tw of string | Built of Kernel.t

type citem = { src : source; copts : Flow.options }

let tw_files =
  [ "attention.tw"; "gemm.tw"; "gemm_bias_relu.tw"; "gemm_fp8.tw" ]

let strategies =
  [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compile_setup ~seed =
  let tw =
    List.concat_map
      (fun f ->
        let text = read_file (Filename.concat "examples/kernels" f) in
        List.map
          (fun strategy -> { src = Tw text; copts = { Flow.default_options with strategy } })
          strategies)
      tw_files
  in
  let built =
    List.concat_map
      (fun family ->
        List.map
          (fun c ->
            { src = Built (Autotune.kernel_of family c); copts = Autotune.options_of c })
          (Autotune.space family))
      [ Autotune.Gemm (Workloads.paper_gemm 4096);
        Autotune.Gemm (Workloads.paper_gemm ~dtype:Dtype.F8E4M3 4096);
        Autotune.Attention (Workloads.paper_mha ~causal:false 4096);
        Autotune.Attention (Workloads.paper_mha ~causal:true 4096) ]
  in
  let items = shuffle (Random.State.make [| seed |]) (Array.of_list (tw @ built)) in
  let round _r =
    Flow.clear_cache ();
    Engine.clear_decode_cache ();
    let n = Array.length items in
    let times = Array.make n nan and is_cold = Array.make n false in
    let failed = ref 0 and instrs = ref 0 and warnings = ref 0 and infeasible = ref 0 in
    let f0 = Flow.cache_stats () in
    let t0 = now () in
    Array.iteri
      (fun i it ->
        let s = now () in
        match
          let kernel =
            match it.src with
            | Built k -> k
            | Tw text ->
              List.hd (Span.time "frontend.elaborate" (fun () -> Elaborate.compile_string text))
          in
          let c, missed = flow_compile it.copts kernel in
          let d = Span.time "arefcheck" (fun () -> Flow.check_compiled c) in
          let rep = Span.time "statcheck" (fun () -> Statcheck.occupancy_report c.Flow.transformed) in
          let dt = now () -. s in
          ignore (flow_compile it.copts kernel);
          if !Span.on then begin
            let options =
              if it.copts.Flow.strategy = Flow.Naive then
                { Codegen.default_options with load_style = Codegen.Ldg_naive }
              else Codegen.default_options
            in
            ignore (Span.time "codegen.lower" (fun () -> Codegen.lower ~options c.Flow.transformed))
          end;
          (dt, missed, d, rep, c)
        with
        | dt, missed, d, rep, c ->
          times.(i) <- dt;
          is_cold.(i) <- missed;
          instrs := !instrs + instr_count c.Flow.program;
          if not (feasible rep.Statcheck.verdict) then incr infeasible;
          (* Warnings (e.g. little SMEM headroom) are advice and are
             counted; an error diagnostic fails the kernel. *)
          let errors = Diagnostic.errors d in
          warnings := !warnings + List.length d - List.length errors;
          if errors <> [] then begin
            incr failed;
            Printf.eprintf "compile: item %d (%s): %s\n%!" i (Flow.options_key it.copts)
              (String.concat "; " (List.map Diagnostic.to_string errors))
          end
        | exception e ->
          incr failed;
          Printf.eprintf "compile: item %d raised %s\n%!" i (Printexc.to_string e))
      items;
    let wall = now () -. t0 in
    let f1 = Flow.cache_stats () in
    {
      wall;
      times;
      is_op = Array.make n true;
      is_cold;
      counts =
        [ ("kernels", Array.length items);
          ("flow.compile_misses", f1.Progcache.misses - f0.Progcache.misses);
          ("flow.compile_hits", f1.Progcache.hits - f0.Progcache.hits);
          ("codegen.instructions", !instrs); ("arefcheck.warnings", !warnings);
          ("statcheck.pruned", !infeasible);
          ("pool.domains_spawned", Pool.domains_spawned ()) ];
      geomean = nan;
      attempted = Array.length items;
      failed = !failed;
    }
  in
  (round, fun () -> ())

(* ------------------------------- graph ----------------------------- *)

(* 70 replays of each of the three demos: 210 samples per session, so
   a p95 has ten beyond it. *)
let replays_per_demo = 70

(* The test suite's tolerance for the gallery against the CPU reference. *)
let gallery_tolerance = 2e-2

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let graph_setup ~seed =
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  remove_tree tmp;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir tmp 0o755;
  (* The demos are built, searched and instantiated in gallery order:
     which shape of a shape bucket is searched cold depends on that
     order, so the seed only shuffles the replay order and picks the
     oracle's demo. *)
  let ctors = Array.of_list (List.map (fun (_, _, f) -> f) Gallery.all) in
  let rng = Random.State.make [| seed |] in
  let round r =
    Flow.clear_cache ();
    Engine.clear_decode_cache ();
    let path = Filename.concat tmp (Printf.sprintf "session-%d.tsv" r) in
    (* Unit 0 is the cold start; unit 1 + d*N + k is the k-th replay of
       demo d. *)
    let nd = Array.length ctors in
    let times = Array.make (1 + (nd * replays_per_demo)) nan in
    let failed = ref 0 in
    let i0 = Engine.instructions_retired () in
    let replay k d inst =
      let s = now () in
      let run = Span.time "graph.replay" (fun () -> Graph.replay inst) in
      Span.add_children
        (Array.to_list
           (Array.map (fun (w : Graph.wave_result) -> ("graph.wave", w.Graph.wr_seconds))
              run.Graph.r_waves));
      times.(1 + (d * replays_per_demo) + k) <- now () -. s;
      run
    in
    let t0 = now () in
    let demos = Span.time "graph.build" (fun () -> Array.map (fun f -> f ()) ctors) in
    let store = Tunestore.open_ ~name:"tawabench" ~path () in
    let cold_searches = ref 0 and warm_searches = ref 0 in
    let measured = ref 0 and pruned = ref 0 in
    Array.iter
      (fun (d : Gallery.demo) ->
        Array.iter
          (fun (spec : Graph.spec) ->
            match spec.Graph.sp_family with
            | None -> ()
            | Some family ->
              let res =
                Span.time "autotune.search"
                  ~rename:(fun (res : Autotune.result) ->
                    if res.Autotune.stats.Autotune.from_store then "autotune.search_warm"
                    else "autotune.search_cold")
                  (fun () -> Autotune.search ~store family)
              in
              pass_children ();
              let st = res.Autotune.stats in
              if st.Autotune.from_store then incr warm_searches else incr cold_searches;
              measured := !measured + st.Autotune.measured;
              pruned := !pruned + st.Autotune.pruned)
          d.Gallery.d_graph.Graph.specs)
      demos;
    let insts =
      Array.map
        (fun (d : Gallery.demo) ->
          let inst =
            Span.time "graph.instantiate" (fun () -> Graph.instantiate ~store d.Gallery.d_graph)
          in
          pass_children ();
          inst)
        demos
    in
    let first = Array.mapi (replay 0) insts in
    times.(0) <- now () -. t0;
    for k = 1 to replays_per_demo - 1 do
      Array.iter (fun d -> ignore (replay k d insts.(d))) (shuffle rng (Array.init nd Fun.id))
    done;
    let wall = now () -. t0 in
    let instrs = Engine.instructions_retired () - i0 in
    (* Oracles: one serial run must give the replay's per-CTA cycles;
       every demo must match its CPU reference. *)
    let pick = Random.State.int (Random.State.make [| seed; r |]) (Array.length insts) in
    let serial = Span.time "oracle.run_serial" (fun () -> Graph.run_serial insts.(pick)) in
    let same =
      Array.for_all2
        (fun (a : Graph.node_result) (b : Graph.node_result) ->
          Array.length a.Graph.nr_cta_cycles = Array.length b.Graph.nr_cta_cycles
          && Array.for_all2
               (fun x y -> bits x = bits y)
               a.Graph.nr_cta_cycles b.Graph.nr_cta_cycles)
        serial.Graph.r_nodes first.(pick).Graph.r_nodes
    in
    if not same then begin
      incr failed;
      Printf.eprintf "graph: run_serial cycles differ from replay (session %d)\n%!" r
    end;
    Array.iter
      (fun (d : Gallery.demo) ->
        let err = Span.time "reference.check" (fun () -> Gallery.check d) in
        if not (err < gallery_tolerance) then begin
          incr failed;
          Printf.eprintf "graph: %s differs from reference by %g\n%!" d.Gallery.d_name err
        end)
      demos;
    let ts = Tunestore.stats store in
    remove_tree path;
    remove_tree (path ^ ".tmp");
    {
      wall;
      times;
      is_op = Array.init (Array.length times) (fun i -> i > 0);
      is_cold = Array.init (Array.length times) (fun i -> i = 0);
      counts =
        [ ("replays", nd * replays_per_demo); ("autotune.searches_cold", !cold_searches);
          ("autotune.searches_warm", !warm_searches); ("autotune.measured", !measured);
          ("statcheck.pruned", !pruned); ("tunestore.stores", ts.Tunestore.stores);
          ("tunestore.hits", ts.Tunestore.hits); ("tunestore.misses", ts.Tunestore.misses);
          ("sim_instructions", instrs);
          ("pool.domains_spawned", Pool.domains_spawned ()) ];
      geomean = nan;
      attempted = nd * replays_per_demo;
      failed = !failed;
    }
  in
  (round, fun () -> remove_tree tmp)

let workloads =
  [
    { wname = "sweep"; mode = Config.Timing; setup = sweep_setup };
    { wname = "compile"; mode = Config.Timing; setup = compile_setup };
    { wname = "graph"; mode = Config.Functional; setup = graph_setup };
  ]

(* ---------------------------- measurement -------------------------- *)

let run_rounds round ~first ~until =
  let rec go r acc =
    tick ();
    let x = round r in
    let acc = x :: acc in
    if now () >= until then (List.rev acc, r + 1) else go (r + 1) acc
  in
  let rounds = go first [] in
  tick ();
  rounds

(* Exact counts (and the sweep geomean) must agree across rounds. *)
let consistent rounds =
  match rounds with
  | [] -> true
  | r0 :: rest ->
    List.for_all
      (fun r ->
        let ok = r.counts = r0.counts && bits r.geomean = bits r0.geomean in
        if not ok then prerr_endline "tawabench: exact counts differ between rounds";
        ok)
      rest

type e2e = { ops_per_s : float; p50 : float; p95 : float; cold : float; nops : int }

(* The host is shared: other tenants slow it by tens of percent in
   bursts of milliseconds to seconds. Every round repeats the same
   units of work, so each unit's fastest time across the rounds is its
   cost with the least interference, and the metrics are taken over
   those. [ops_per_s] is the operations per second of the summed unit
   times (a sweep's pruned candidates included); the percentiles run
   over the operations; [cold] is the median over units that paid a
   compile miss (for graph, the single cold start of a session). *)
let e2e_of rounds =
  match rounds with
  | [] -> invalid_arg "e2e_of: no rounds"
  | r0 :: _ ->
    let best =
      Array.mapi
        (fun i _ ->
          List.fold_left
            (fun m r -> if Float.is_nan r.times.(i) then m else Float.min m r.times.(i))
            infinity rounds)
        r0.times
    in
    let pick flags =
      List.filter_map Fun.id
        (Array.to_list
           (Array.mapi (fun i b -> if flags.(i) && b < infinity then Some b else None) best))
    in
    let ops = pick r0.is_op in
    (* A cold unit that is no operation (graph's cold start, which
       spans the first replays) stays out of the throughput. *)
    let total =
      List.fold_left ( +. ) 0.0
        (pick (Array.mapi (fun i op -> op || not r0.is_cold.(i)) r0.is_op))
    in
    {
      ops_per_s = float (List.length ops) /. total;
      p50 = median ops *. 1e3;
      p95 = percentile 0.95 ops *. 1e3;
      cold = median (pick r0.is_cold) *. 1e3;
      nops = List.length ops;
    }

(* ----------------------------- per layer --------------------------- *)

let per_layer_names =
  [ ("frontend.elaborate.ms", "ms"); ("frontend.elaborate.alloc_kw", "kwords");
    ("passes.canonicalize.ms", "ms"); ("passes.warp-specialize.ms", "ms");
    ("passes.coarse-pipeline.ms", "ms"); ("passes.fine-pipeline.ms", "ms");
    ("passes.verify.ms", "ms"); ("codegen.lower.ms", "ms");
    ("codegen.instructions", "count"); ("arefcheck.ms", "ms"); ("statcheck.ms", "ms");
    ("statcheck.pruned", "count"); ("flow.compile_miss.ms", "ms");
    ("flow.compile_miss.alloc_kw", "kwords"); ("flow.compile_hit.ms", "ms");
    ("flow.hit_ratio", "ratio"); ("flow.compile_misses", "count");
    ("engine.prepare_miss.ms", "ms"); ("engine.prepare_hit.us", "us");
    ("engine.decode_hit_ratio", "ratio"); ("engine.decode_misses", "count");
    ("launch.estimate.ms", "ms"); ("launch.estimate.alloc_kw", "kwords");
    ("launch.sim_instructions", "count"); ("launch.ns_per_sim_instruction", "ns");
    ("sim.tflops_geomean", "TFLOPS"); ("autotune.search_cold.ms", "ms");
    ("autotune.search_warm.ms", "ms"); ("autotune.measured", "count");
    ("tunestore.stores", "count"); ("tunestore.hits", "count");
    ("graph.build.ms", "ms"); ("graph.instantiate.ms", "ms"); ("graph.replay.ms", "ms");
    ("graph.wave.ms", "ms"); ("pool.domains_spawned", "count");
    ("reference.check.ms", "ms"); ("oracle.ms", "ms");
    ("gc.major_collections", "count");
    ("trace.unattributed_share", "ratio"); ("trace.conservation_error_ms", "ms");
    ("trace.overhead_pct", "%") ]

(* Per-layer values: self time per call from the span ledger, exact
   counts from the first traced round. Layers a workload never calls
   read 0. *)
let per_layer ~(ledger : Span.ledger) ~(round : round) ~wall ~majors ~nrounds ~overhead =
  let entry name = Hashtbl.find_opt ledger.Span.layers name in
  let per_call scale name =
    match entry name with
    | Some e when e.Span.calls > 0 -> e.Span.self /. float e.Span.calls *. scale
    | _ -> 0.0
  in
  let alloc name =
    match entry name with
    | Some e when e.Span.calls > 0 -> e.Span.words /. float e.Span.calls /. 1e3
    | _ -> 0.0
  in
  let count name = float (Option.value ~default:0 (List.assoc_opt name round.counts)) in
  let ratio hits misses = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  let calls name = match entry name with Some e -> float e.Span.calls | None -> 0.0 in
  let oracle =
    List.fold_left
      (fun acc n -> match entry n with Some e -> acc +. e.Span.self | None -> acc)
      0.0 [ "oracle.reference_engine"; "oracle.run_serial" ]
  in
  let oracle_calls = calls "oracle.reference_engine" +. calls "oracle.run_serial" in
  let unattributed = wall -. ledger.Span.covered in
  let est_instr = count "launch.sim_instructions" in
  let value = function
    | "frontend.elaborate.alloc_kw" -> alloc "frontend.elaborate"
    | "flow.compile_miss.alloc_kw" -> alloc "flow.compile_miss"
    | "launch.estimate.alloc_kw" -> alloc "launch.estimate"
    | "engine.prepare_hit.us" -> per_call 1e6 "engine.prepare_hit"
    | "codegen.instructions" | "statcheck.pruned" | "flow.compile_misses"
    | "engine.decode_misses" | "launch.sim_instructions" | "autotune.measured"
    | "tunestore.stores" | "tunestore.hits" | "pool.domains_spawned" as n ->
      count n
    | "flow.hit_ratio" -> ratio (count "flow.compile_hits") (count "flow.compile_misses")
    | "engine.decode_hit_ratio" ->
      ratio (count "engine.decode_hits") (count "engine.decode_misses")
    | "launch.ns_per_sim_instruction" -> (
      match entry "launch.estimate" with
      | Some e when est_instr > 0.0 ->
        e.Span.total /. (est_instr *. float nrounds) *. 1e9
      | _ -> 0.0)
    | "sim.tflops_geomean" -> if Float.is_nan round.geomean then 0.0 else round.geomean
    | "oracle.ms" -> if oracle_calls > 0.0 then oracle /. oracle_calls *. 1e3 else 0.0
    | "gc.major_collections" -> float majors /. float nrounds
    | "trace.unattributed_share" -> unattributed /. wall
    | "trace.conservation_error_ms" ->
      Float.abs (ledger.Span.self_sum +. unattributed -. wall) *. 1e3
    | "trace.overhead_pct" -> overhead
    | n when String.length n > 7 && String.sub n 0 7 = "passes." -> (
      let pass = String.sub n 0 (String.length n - 3) in
      match (entry pass, Hashtbl.find_opt pass_calls pass) with
      | Some e, Some c when c > 0 -> e.Span.self /. float c *. 1e3
      | _ -> 0.0)
    | n ->
      (* "<layer>.ms": self time per call *)
      per_call 1e3 (String.sub n 0 (String.length n - 3))
  in
  List.map (fun (n, u) -> (n, u, value n)) per_layer_names

(* ------------------------------- output ---------------------------- *)

(* [speed] scales host times (see [cal_ref]); 1.0 gives the raw values. *)
let e2e_metrics (e : e2e) ~setup_s ~rss ~speed =
  [ ("ops_per_s", "1/s", e.ops_per_s /. speed); ("op_ms_p50", "ms", e.p50 *. speed);
    ("op_ms_p95", "ms", e.p95 *. speed); ("cold_ms", "ms", e.cold *. speed);
    ("setup_s", "s", setup_s *. speed); ("peak_rss_mb", "MB", rss) ]

let fmt_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (fmt_float v) u)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m

let write_report ~path ~origin ~info ~settings ~rounds ~metrics ~ledger =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let str_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs) in
  let doc =
    Json.Obj
      [ ("info", str_obj info); ("settings", str_obj settings);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
               metrics) );
        ( "rounds",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [ ("wall_s", Json.Float r.wall);
                     ("failed", Json.Int r.failed);
                     ("counts", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counts)) ])
               rounds) );
        ( "ledger",
          match ledger with
          | None -> Json.Null
          | Some (l : Span.ledger) ->
            Json.Obj
              (Hashtbl.fold (fun k (e : Span.entry) acc -> (k, e) :: acc) l.Span.layers []
              |> List.sort compare
              |> List.map (fun (k, (e : Span.entry)) ->
                     ( k,
                       Json.Obj
                         [ ("calls", Json.Int e.Span.calls); ("total_s", Json.Float e.Span.total);
                           ("self_s", Json.Float e.Span.self);
                           ("minor_kwords", Json.Float (e.Span.words /. 1e3)) ] ))) ) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"report\": ";
      output_string oc (Json.to_string doc);
      output_string oc ",\n\"spans\": ";
      Span.write_json oc ~origin;
      output_string oc "}\n")

(* ------------------------------- drive ----------------------------- *)

let run_workload wl ~seed ~seconds ~trace ~commit =
  probes := [];
  setups := [];
  setup_of := setup_child ~workload:wl.wname ~seed;
  last_tick := neg_infinity;
  tick ();
  let settings = pin ~mode:wl.mode in
  let round, teardown = wl.setup ~seed in
  let t0 = now () in
  let measured, ledger, per_layer_metrics =
    if not trace then begin
      let rounds, _ = run_rounds round ~first:0 ~until:(t0 +. seconds) in
      (rounds, None, [])
    end
    else begin
      let untraced, next = run_rounds round ~first:0 ~until:(t0 +. (seconds /. 2.0)) in
      let probes_u = List.length !probes in
      let probe_u = List.fold_left Float.min infinity !probes in
      Span.reset ();
      pass_base := pass_totals ();
      Hashtbl.reset pass_calls;
      let majors0 = (Gc.quick_stat ()).Gc.major_collections in
      Span.on := true;
      let tt = now () in
      let traced, _ = run_rounds round ~first:next ~until:(t0 +. seconds) in
      let wall = now () -. tt in
      Span.on := false;
      let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
      let ledger = Span.ledger () in
      let eu = e2e_of untraced and et = e2e_of traced in
      (* Each half at its own host speed: the probes after the split. *)
      let probe_t =
        match List.filteri (fun i _ -> i < List.length !probes - probes_u) !probes with
        | [] -> probe_u
        | ps -> List.fold_left Float.min infinity ps
      in
      let overhead =
        ((eu.ops_per_s *. probe_u /. (et.ops_per_s *. probe_t)) -. 1.0) *. 100.0
      in
      let pl =
        per_layer ~ledger ~round:(List.hd traced) ~wall ~majors
          ~nrounds:(List.length traced) ~overhead
      in
      (untraced @ traced, Some ledger, pl)
    end
  in
  teardown ();
  while List.length !setups < setup_runs do
    setups := !setup_of () :: !setups
  done;
  let setup_s = median !setups in
  let e = e2e_of measured in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 measured in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 measured in
  let correct = failed = 0 && consistent measured in
  let rss = peak_rss_mb () in
  let probe = List.fold_left Float.min infinity !probes in
  let e2e = e2e_metrics e ~setup_s ~rss ~speed:(cal_ref /. probe) in
  let raw =
    List.map (fun (n, u, v) -> ("raw." ^ n, u, v)) (e2e_metrics e ~setup_s ~rss ~speed:1.0)
  in
  let metrics = if trace then per_layer_metrics else e2e in
  let info =
    [ ("workload", wl.wname); ("seed", string_of_int seed);
      ("seconds", fmt_float seconds); ("trace", string_of_bool trace);
      ("rounds", string_of_int (List.length measured));
      ("operations", string_of_int e.nops);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version); ("commit", commit);
      ("probe_min_s", fmt_float probe); ("probe_runs", string_of_int (List.length !probes)) ]
  in
  let path =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" wl.wname seed (if trace then 1 else 0))
  in
  write_report ~path ~origin:t0 ~info ~settings ~rounds:measured
    ~metrics:(e2e @ raw @ per_layer_metrics) ~ledger;
  Span.reset ();
  Printf.eprintf "tawabench %s: %d rounds, %d ops, report %s\n%!" wl.wname
    (List.length measured) e.nops path;
  (correct, attempted, failed, metrics, e2e)

let print_table rows =
  match rows with
  | [] -> ()
  | (_, first) :: _ ->
    Printf.printf "%-8s" "workload";
    List.iter (fun (n, u, _) -> Printf.printf " %18s" (Printf.sprintf "%s[%s]" n u)) first;
    print_newline ();
    List.iter
      (fun (name, ms) ->
        Printf.printf "%-8s" name;
        List.iter (fun (_, _, v) -> Printf.printf " %18.6g" v) ms;
        print_newline ())
      rows

(* Two single-round runs with different seeds must agree exactly on
   every count and on the simulated TFLOPS geomean. *)
let selftest () =
  let ok =
    List.for_all
      (fun wl ->
        ignore (pin ~mode:wl.mode);
        let one seed =
          let round, teardown = wl.setup ~seed in
          let r = round 0 in
          teardown ();
          r
        in
        let a = one 1 and b = one 2 in
        let same = a.counts = b.counts && bits a.geomean = bits b.geomean in
        Printf.printf "selftest %-8s %s (failed %d + %d)\n%!" wl.wname
          (if same then "counts agree" else "COUNTS DIFFER")
          a.failed b.failed;
        same && a.failed = 0 && b.failed = 0)
      workloads
  in
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let commit = ref "unknown" and setup_only = ref false and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "sweep|compile|graph|all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--commit", Arg.Set_string commit, "ID recorded in the report");
      ("--setup-only", Arg.Set setup_only, " set up and exit (set-up timing)");
      ("--selftest", Arg.Set self, " check exact counts across two runs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !self then selftest ();
  let find name =
    match List.find_opt (fun w -> w.wname = name) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("tawabench: unknown workload " ^ name);
      exit 2
  in
  if !setup_only then begin
    let wl = find !workload in
    ignore (pin ~mode:wl.mode);
    let _, teardown = wl.setup ~seed:!seed in
    teardown ();
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "tawabench: --trace is 0 or 1"; exit 2);
  let trace = !trace = 1 in
  let chosen = if !workload = "all" then workloads else [ find !workload ] in
  let results =
    List.map
      (fun wl ->
        (wl.wname, run_workload wl ~seed:!seed ~seconds:!seconds ~trace ~commit:!commit))
      chosen
  in
  match results with
  | [ (_, (correct, attempted, failed, metrics, _)) ] ->
    print_endline (result_line ~correct ~attempted ~failed metrics)
  | _ ->
    print_table (List.map (fun (n, (_, _, _, _, e2e)) -> (n, e2e)) results);
    let correct = List.for_all (fun (_, (c, _, _, _, _)) -> c) results in
    let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
    print_endline
      (result_line ~correct
         ~attempted:(sum (fun (_, a, _, _, _) -> a))
         ~failed:(sum (fun (_, _, f, _, _) -> f))
         [])
