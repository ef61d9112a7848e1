(* Simulation-mode differential suite (PR 6).

   Three invariants of the hardware-fast simulation levers:

   1. modes.differential — timing-only execution is bit-identical to
      functional execution on everything the timing model reports:
      cycles, engine stats, and the PR 5 stall-attribution bucket
      floats, on pinned small shapes, for both CTA engines.

   2. modes.cachekey — the decode cache keys entries on
      (program fingerprint x cost-model digest x execution mode
      [x timing-opt flag]), so functional and timing decodes of one
      program never alias, and eviction works for the new key shape.

   3. modes.replication — symmetry replication is bit-identical when
      granted, and refuses (full-simulation fallback, one-time
      warning) on CTA-id-dependent timing, arefcheck violations,
      persistent programs, and differing cost inputs. *)

open Tawa_tensor
open Tawa_machine
open Tawa_core
open Tawa_gpusim
module Replicate = Tawa_analysis.Replicate
module Registry = Tawa_obs.Registry

let small_tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 }

let compile ?(d = 2) ?(p = 2) ?(coop = 1) ?(persistent = false) ?(coarse = false) k =
  Flow.compile
    ~options:
      { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop; persistent;
        use_coarse = coarse }
    k

let ws_gemm ?d ?p ?coop ?persistent () =
  compile ?d ?p ?coop ?persistent (Tawa_frontend.Kernels.gemm ~tiles:small_tiles ())

(* ------------------------------------------------------------------ *)
(* 1. Timing-only vs functional: cycles and stall buckets identical    *)
(* ------------------------------------------------------------------ *)

let profiles_equal (a : Sim.profile) (b : Sim.profile) =
  a.Sim.wall = b.Sim.wall
  && a.Sim.wg_profs = b.Sim.wg_profs
  && a.Sim.chan_profs = b.Sim.chan_profs

(* Everything the timing model reports must match bit for bit; the
   functional payload (tile values, buffer writes) is exactly what
   timing mode is allowed to drop. *)
let timing_equal (a : Sim.outcome) (b : Sim.outcome) =
  a.Sim.cycles = b.Sim.cycles
  && a.Sim.instructions = b.Sim.instructions
  && a.Sim.stats.Sim.tc_busy = b.Sim.stats.Sim.tc_busy
  && a.Sim.stats.Sim.tma_busy = b.Sim.stats.Sim.tma_busy
  && a.Sim.stats.Sim.tma_bytes = b.Sim.stats.Sim.tma_bytes
  && a.Sim.stats.Sim.wgmma_count = b.Sim.stats.Sim.wgmma_count
  && a.Sim.stats.Sim.tma_count = b.Sim.stats.Sim.tma_count
  && a.Sim.stats.Sim.steps = b.Sim.stats.Sim.steps
  && profiles_equal a.Sim.profile b.Sim.profile

let run ~mode ~engine ?(pid = [| 0; 0; 0 |]) ?(grid = [| 2; 2; 1 |])
    ?(mk_pop = fun () -> Launch.no_queue) program ~params =
  Engine.run_cta
    ~cfg:{ Config.h100 with Config.mode; engine = Some engine }
    ~program ~params ~num_programs:grid ~pid ~pop_global:(mk_pop ()) ()

let check_mode_diff name ?pid ?grid ?mk_pop program ~params =
  let go mode engine = run ~mode ~engine ?pid ?grid ?mk_pop program ~params in
  let f_ref = go Config.Functional Config.Reference in
  let t_ref = go Config.Timing Config.Reference in
  let f_dec = go Config.Functional Config.Decoded in
  let t_dec = go Config.Timing Config.Decoded in
  Alcotest.(check bool)
    (Printf.sprintf "%s: reference timing == functional (%.3f vs %.3f cycles)" name
       t_ref.Sim.cycles f_ref.Sim.cycles)
    true (timing_equal f_ref t_ref);
  Alcotest.(check bool)
    (Printf.sprintf "%s: decoded timing == functional (%.3f vs %.3f cycles)" name
       t_dec.Sim.cycles f_dec.Sim.cycles)
    true (timing_equal f_dec t_dec);
  Alcotest.(check bool)
    (name ^ ": decoded timing == reference functional") true
    (timing_equal f_ref t_dec)

let gemm_buffers ~m ~n ~kk =
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:3 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:4 [| kk; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]

let test_mode_diff_gemm () =
  let params = gemm_buffers ~m:32 ~n:32 ~kk:16 in
  check_mode_diff "ws gemm" (ws_gemm ()).Flow.program ~params;
  check_mode_diff "ws gemm boundary cta" ~pid:[| 1; 1; 0 |] (ws_gemm ()).Flow.program
    ~params;
  check_mode_diff "deep gemm" (ws_gemm ~d:3 ~p:2 ()).Flow.program ~params;
  check_mode_diff "coop gemm" (ws_gemm ~coop:2 ()).Flow.program ~params

let test_mode_diff_baseline () =
  let compiled =
    Test_fuzz.sw_compile (Tawa_frontend.Kernels.gemm ~tiles:small_tiles ())
  in
  check_mode_diff "sw-pipelined gemm" compiled.Flow.program
    ~params:(gemm_buffers ~m:32 ~n:32 ~kk:16)

let test_mode_diff_persistent () =
  check_mode_diff "persistent gemm"
    ~mk_pop:(fun () -> Launch.queue_of_list [ 0; 1; 2; 3 ])
    (ws_gemm ~persistent:true ()).Flow.program
    ~params:(gemm_buffers ~m:32 ~n:32 ~kk:16)

let test_mode_diff_attention () =
  let l = 32 and d = 8 in
  let compiled =
    compile ~d:2 ~p:1 ~coarse:true
      (Tawa_frontend.Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:d ())
  in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  check_mode_diff "coarse attention" ~grid:[| 2; 1; 1 |] compiled.Flow.program
    ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]

(* ------------------------------------------------------------------ *)
(* 2. Decode-cache key shape and eviction                              *)
(* ------------------------------------------------------------------ *)

let test_cache_key_shape () =
  let p = (ws_gemm ()).Flow.program in
  let timing = Config.h100 in
  let functional = { Config.h100 with Config.mode = Config.Functional } in
  let k_tim = Engine.cache_key timing p in
  let k_fun = Engine.cache_key functional p in
  Alcotest.(check bool) "functional and timing keys differ" true (k_tim <> k_fun);
  let contains hay needle =
    Astring.String.find_sub ~sub:needle hay <> None
  in
  Alcotest.(check bool) "timing key names its mode" true (contains k_tim "timing");
  Alcotest.(check bool) "functional key names its mode" true
    (contains k_fun "functional");
  (* Cost-model fields are part of the key... *)
  let slow = { timing with Config.scalar_cycles = timing.Config.scalar_cycles +. 1.0 } in
  Alcotest.(check bool) "cost-model change changes the key" true
    (Engine.cache_key slow p <> k_tim);
  (* ...but trace collection and engine choice are not. *)
  Alcotest.(check bool) "collect_trace does not change the key" true
    (Engine.cache_key { timing with Config.collect_trace = true } p = k_tim);
  Alcotest.(check bool) "engine choice does not change the key" true
    (Engine.cache_key { timing with Config.engine = Some Config.Reference } p = k_tim);
  (* The timing-optimization flag joins the key in timing mode only. *)
  let opts_were_on = Decode.opts_on () in
  Decode.set_opts_enabled true;
  let k_opt = Engine.cache_key timing p and k_fun_opt = Engine.cache_key functional p in
  Decode.set_opts_enabled false;
  let k_noopt = Engine.cache_key timing p and k_fun_noopt = Engine.cache_key functional p in
  Decode.set_opts_enabled opts_were_on;
  Alcotest.(check bool) "opt flag changes the timing key" true (k_opt <> k_noopt);
  Alcotest.(check bool) "opt flag ignored in functional mode" true
    (k_fun_opt = k_fun_noopt)

let test_cache_eviction_new_keys () =
  (* A tiny cache filled through the new key shape: the third distinct
     (mode x cost-model) key must evict, and evicted entries miss
     again. *)
  let p = (ws_gemm ()).Flow.program in
  let timing = Config.h100 in
  let keys =
    [ Engine.cache_key timing p;
      Engine.cache_key { timing with Config.mode = Config.Functional } p;
      Engine.cache_key
        { timing with Config.scalar_cycles = timing.Config.scalar_cycles +. 1.0 }
        p ]
  in
  Alcotest.(check int) "three distinct keys" 3
    (List.length (List.sort_uniq compare keys));
  let c : int Progcache.t = Progcache.create ~max_entries:2 () in
  List.iteri (fun i k -> ignore (Progcache.find_or_add c ~key:k (fun () -> i))) keys;
  let s = Progcache.stats c in
  Alcotest.(check int) "three misses" 3 s.Progcache.misses;
  Alcotest.(check bool) "eviction occurred" true (s.Progcache.evictions > 0);
  ignore (Progcache.find_or_add c ~key:(List.hd keys) (fun () -> 9));
  Alcotest.(check int) "evicted key misses again" 4 (Progcache.stats c).Progcache.misses

let test_decode_cache_mode_entries () =
  (* Engine.prepare populates one entry per mode for the same program. *)
  Engine.clear_decode_cache ();
  let p = (ws_gemm ()).Flow.program in
  let s0 = Engine.decode_cache_stats () in
  ignore (Engine.prepare ~cfg:Config.h100 p);
  ignore (Engine.prepare ~cfg:{ Config.h100 with Config.mode = Config.Functional } p);
  let s1 = Engine.decode_cache_stats () in
  Alcotest.(check int) "two mode entries = two misses" 2
    (s1.Progcache.misses - s0.Progcache.misses);
  ignore (Engine.prepare ~cfg:Config.h100 p);
  ignore (Engine.prepare ~cfg:{ Config.h100 with Config.mode = Config.Functional } p);
  let s2 = Engine.decode_cache_stats () in
  Alcotest.(check int) "repeat prepares hit" 2 (s2.Progcache.hits - s1.Progcache.hits);
  Alcotest.(check int) "no further misses" 0 (s2.Progcache.misses - s1.Progcache.misses)

(* ------------------------------------------------------------------ *)
(* 3. Symmetry replication: bit-identity, refusals, fallback           *)
(* ------------------------------------------------------------------ *)

let counter name =
  match List.assoc_opt name (Registry.snapshot ()) with
  | Some (Registry.Int i) -> i
  | _ -> 0

(* Two heterogeneous GEMM items (differing cost inputs => two
   equivalence classes) over a 3-SM config whose share mixes units of
   both. *)
let grouped_items ?(functional = false) () =
  List.map
    (fun (m, n) ->
      let compiled = ws_gemm ~persistent:false () in
      let s = { Workloads.m; n; k = 16; dtype = Dtype.F16 } in
      let grid, params = Workloads.gemm_launch s ~tiles:small_tiles in
      (* Timing runs take the launch helper's unbound pointers (as the
         bench does); functional runs need real buffers. *)
      let params =
        if functional then gemm_buffers ~m ~n ~kk:16 else params
      in
      (compiled.Flow.program, params, grid, Workloads.gemm_flops s))
    [ (32, 32); (48, 32) ]

let with_replication enabled f =
  let was = Launch.replication_enabled () in
  Launch.set_replication_enabled enabled;
  Fun.protect ~finally:(fun () -> Launch.set_replication_enabled was) f

let cfg3 = { Config.h100 with Config.num_sms = 3 }

let test_replication_bit_identical () =
  let items = grouped_items () in
  let t_off = with_replication false (fun () -> Launch.estimate_grouped ~cfg:cfg3 items) in
  let sim0 = counter "launch.replication.simulated" in
  let rep0 = counter "launch.replication.replicated" in
  let t_on = with_replication true (fun () -> Launch.estimate_grouped ~cfg:cfg3 items) in
  Alcotest.(check (float 0.0)) "cycles bit-identical" t_off.Launch.cycles
    t_on.Launch.cycles;
  Alcotest.(check (float 0.0)) "tc_busy bit-identical" t_off.Launch.stats.Sim.tc_busy
    t_on.Launch.stats.Sim.tc_busy;
  (* 10 units, share 4 (every 3rd unit): units {0,3} are class 0 and
     {6,9} class 1 — one representative simulated per class. *)
  Alcotest.(check int) "one simulation per class" 2
    (counter "launch.replication.simulated" - sim0);
  Alcotest.(check int) "other units replicated" 2
    (counter "launch.replication.replicated" - rep0)

let test_replication_functional_mode_disabled () =
  (* Functional mode must simulate every CTA (buffer writes happen),
     so replication is bypassed even when enabled. *)
  let items = grouped_items ~functional:true () in
  let sim0 = counter "launch.replication.simulated" in
  let rep0 = counter "launch.replication.replicated" in
  let t_fun =
    with_replication true (fun () ->
        Launch.estimate_grouped ~mode:Config.Functional ~cfg:cfg3 items)
  in
  Alcotest.(check int) "no replication accounting in functional mode" 0
    (counter "launch.replication.simulated" - sim0
    + (counter "launch.replication.replicated" - rep0));
  let t_tim = with_replication true (fun () -> Launch.estimate_grouped ~cfg:cfg3 items) in
  Alcotest.(check (float 0.0)) "functional cycles == timing cycles" t_fun.Launch.cycles
    t_tim.Launch.cycles

(* A CTA whose instruction path depends on its id: CTA 0 skips the
   ALU op, every other CTA executes it. Replicating CTA 0's timing
   across the wave would be wrong — the verdict must refuse and the
   launcher must fall back to simulating each CTA. *)
let pid_branch_program =
  {
    Isa.name = "pid_branch";
    param_tys = [];
    streams =
      [ { Isa.role = Tawa_ir.Op.Consumer; coop = 1;
          instrs =
            [| Isa.Pid { dst = 0; axis = 0 };
               Isa.Brz { cond = Isa.Reg 0; target = 3 };
               Isa.Alu { op = Tawa_ir.Op.Add; dst = 1; a = Isa.Imm 1; b = Isa.Imm 2 };
               Isa.Exit |] } ];
    allocs = [];
    num_mbarriers = 0;
    mbar_arrive_counts = [||];
    mbar_resettable = [||];
    num_rings = 0;
    persistent = false;
    grid_axes = 3;
    prov = Isa.no_prov;
  }

let test_replication_refusals () =
  (match Replicate.verdict pid_branch_program with
  | Replicate.Refused r ->
    Alcotest.(check bool) "pid branch reason" true
      (Astring.String.find_sub ~sub:"branches" r <> None)
  | Replicate.Replicable -> Alcotest.fail "pid-branching program must be refused");
  (match Replicate.verdict (ws_gemm ~persistent:true ()).Flow.program with
  | Replicate.Refused r ->
    Alcotest.(check bool) "persistent reason" true
      (Astring.String.find_sub ~sub:"persistent" r <> None)
  | Replicate.Replicable -> Alcotest.fail "persistent program must be refused");
  (* An arefcheck protocol violation (orphan mbarrier wait) refuses. *)
  let orphan_wait =
    { pid_branch_program with
      Isa.name = "orphan_wait";
      num_mbarriers = 1;
      mbar_arrive_counts = [| 1 |];
      mbar_resettable = [| true |];
      streams =
        [ { Isa.role = Tawa_ir.Op.Producer; coop = 1;
            instrs =
              [| Isa.Mbar_wait
                   { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 1 };
                 Isa.Exit |] } ] }
  in
  match Replicate.verdict orphan_wait with
  | Replicate.Refused r ->
    Alcotest.(check bool) "arefcheck reason" true
      (Astring.String.find_sub ~sub:"arefcheck" r <> None)
  | Replicate.Replicable -> Alcotest.fail "arefcheck-violating program must be refused"

let test_replication_refused_fallback () =
  (* Every CTA of the refused program is simulated, so the estimate is
     bit-identical with replication on or off — even though the CTAs
     genuinely differ (replicating CTA 0 would have changed it). *)
  let items = [ (pid_branch_program, [], (3, 1, 1), 1.0) ] in
  let cfg1 = { Config.h100 with Config.num_sms = 1 } in
  let t_off =
    with_replication false (fun () -> Launch.estimate_grouped ~cfg:cfg1 items)
  in
  let sim0 = counter "launch.replication.simulated" in
  let rep0 = counter "launch.replication.replicated" in
  let t_on = with_replication true (fun () -> Launch.estimate_grouped ~cfg:cfg1 items) in
  Alcotest.(check (float 0.0)) "fallback bit-identical" t_off.Launch.cycles
    t_on.Launch.cycles;
  Alcotest.(check int) "all three CTAs simulated" 3
    (counter "launch.replication.simulated" - sim0);
  Alcotest.(check int) "none replicated" 0
    (counter "launch.replication.replicated" - rep0)

let test_refusal_warning_once () =
  (* The refusal warning is emitted at most once per process, not once
     per launch. *)
  let warnings = ref 0 in
  let old_reporter = Logs.reporter () in
  let old_level = Logs.level () in
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    { Logs.report =
        (fun src level ~over k _msgf ->
          if level = Logs.Warning && Logs.Src.name src = "tawa.launch" then
            incr warnings;
          over ();
          k ()) };
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.set_level old_level)
    (fun () ->
      let items = [ (pid_branch_program, [], (3, 1, 1), 1.0) ] in
      let cfg1 = { Config.h100 with Config.num_sms = 1 } in
      let go () =
        ignore (with_replication true (fun () -> Launch.estimate_grouped ~cfg:cfg1 items))
      in
      go ();
      let after_first = !warnings in
      go ();
      Alcotest.(check bool) "at most one warning" true (after_first <= 1);
      Alcotest.(check int) "second launch adds no warning" after_first !warnings)

let test_replication_mixed_wave () =
  (* A wave mixing a replicable class with a refused one: the refused
     item's units are all simulated, the replicable item collapses to
     one representative, and the total stays bit-identical. *)
  let gemm_item = List.hd (grouped_items ()) in
  let items = [ gemm_item; (pid_branch_program, [], (4, 1, 1), 1.0) ] in
  let cfg2 = { Config.h100 with Config.num_sms = 2 } in
  let t_off =
    with_replication false (fun () -> Launch.estimate_grouped ~cfg:cfg2 items)
  in
  let t_on = with_replication true (fun () -> Launch.estimate_grouped ~cfg:cfg2 items) in
  Alcotest.(check (float 0.0)) "mixed wave bit-identical" t_off.Launch.cycles
    t_on.Launch.cycles

let suites =
  [ ( "modes.differential",
      [ Alcotest.test_case "gemm variants" `Quick test_mode_diff_gemm;
        Alcotest.test_case "sw-pipelined baseline" `Quick test_mode_diff_baseline;
        Alcotest.test_case "persistent gemm" `Quick test_mode_diff_persistent;
        Alcotest.test_case "coarse attention" `Quick test_mode_diff_attention ] );
    ( "modes.cachekey",
      [ Alcotest.test_case "key shape" `Quick test_cache_key_shape;
        Alcotest.test_case "eviction on new keys" `Quick test_cache_eviction_new_keys;
        Alcotest.test_case "per-mode decode entries" `Quick
          test_decode_cache_mode_entries ] );
    ( "modes.replication",
      [ Alcotest.test_case "bit-identical when granted" `Quick
          test_replication_bit_identical;
        Alcotest.test_case "disabled in functional mode" `Quick
          test_replication_functional_mode_disabled;
        Alcotest.test_case "refusal verdicts" `Quick test_replication_refusals;
        Alcotest.test_case "refused fallback simulates all" `Quick
          test_replication_refused_fallback;
        Alcotest.test_case "warning fires once" `Quick test_refusal_warning_once;
        Alcotest.test_case "mixed wave" `Quick test_replication_mixed_wave ] );
  ]
