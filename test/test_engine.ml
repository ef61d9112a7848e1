(* Differential tests pinning the decoded (closure-compiled) engine to
   the tree-walking reference interpreter, bit for bit: same cycles,
   same stats, same functional tensors, same error messages — across
   hand-built ISA programs, compiled frontend kernels, and the fuzz
   corpus, in both functional and timing modes. Also property-tests
   the typed register planes against an rt-array model, and pins the
   satellite fixes of this PR (fence release on Exit, ring deadlock
   diagnostics, the Ldg bandwidth config knob, engine selection and
   the decode cache). *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine
open Tawa_gpusim
module Flow = Tawa_core.Flow

let mk_program ?(allocs = []) ?(num_mbarriers = 0) ?(arrive = [||]) ?(num_rings = 0)
    ?(persistent = false) ?(param_tys = []) streams =
  {
    Isa.name = "t";
    param_tys;
    streams;
    allocs;
    num_mbarriers;
    mbar_arrive_counts = arrive;
    mbar_resettable = Array.map (fun _ -> true) arrive;
    num_rings;
    persistent;
    grid_axes = 3;
    prov = Isa.no_prov;
  }

let stream ?(role = Op.Consumer) ?(coop = 1) instrs =
  { Isa.role; coop; instrs = Array.of_list instrs }

let cfg = Config.h100

(* ------------------------------------------------------------------ *)
(* Outcome equality (exact)                                            *)
(* ------------------------------------------------------------------ *)

(* Stall attribution and channel occupancy must also match bit for bit
   (PR 5 telemetry): both records contain only scalars and float
   arrays, so structural equality is exact float equality. *)
let profiles_equal (a : Sim.profile) (b : Sim.profile) =
  a.Sim.wall = b.Sim.wall
  && a.Sim.wg_profs = b.Sim.wg_profs
  && a.Sim.chan_profs = b.Sim.chan_profs

let outcomes_equal (a : Sim.outcome) (b : Sim.outcome) =
  a.Sim.cycles = b.Sim.cycles
  && a.Sim.instructions = b.Sim.instructions
  && a.Sim.stats.Sim.tc_busy = b.Sim.stats.Sim.tc_busy
  && a.Sim.stats.Sim.tma_busy = b.Sim.stats.Sim.tma_busy
  && a.Sim.stats.Sim.tma_bytes = b.Sim.stats.Sim.tma_bytes
  && a.Sim.stats.Sim.wgmma_count = b.Sim.stats.Sim.wgmma_count
  && a.Sim.stats.Sim.tma_count = b.Sim.stats.Sim.tma_count
  && a.Sim.stats.Sim.steps = b.Sim.stats.Sim.steps
  && profiles_equal a.Sim.profile b.Sim.profile

(* Run one CTA of a hand-built program under both engines. [mk_pop]
   builds a fresh queue per engine run (queues are stateful). *)
let run_both ?(params = []) ?(mk_pop = fun () -> Launch.no_queue) ?(cfg = cfg) p =
  let run engine =
    Engine.run_cta
      ~cfg:{ cfg with Config.engine = Some engine }
      ~program:p ~params ~num_programs:[| 4; 4; 1 |] ~pop_global:(mk_pop ()) ()
  in
  (run Config.Reference, run Config.Decoded)

let check_both ?params ?mk_pop ?cfg name p =
  let r, d = run_both ?params ?mk_pop ?cfg p in
  Alcotest.(check bool)
    (Printf.sprintf "%s: decoded == reference (%.2f vs %.2f cycles, %d vs %d steps)"
       name d.Sim.cycles r.Sim.cycles d.Sim.stats.Sim.steps r.Sim.stats.Sim.steps)
    true (outcomes_equal r d)

(* Both engines must fail with the IDENTICAL error message. *)
let run_both_err ?(params = []) p =
  let run engine =
    try
      ignore
        (Engine.run_cta
           ~cfg:{ cfg with Config.engine = Some engine }
           ~program:p ~params ~num_programs:[| 4; 4; 1 |]
           ~pop_global:Launch.no_queue ());
      None
    with Sim.Sim_error msg -> Some msg
  in
  (run Config.Reference, run Config.Decoded)

(* ------------------------------------------------------------------ *)
(* Hand-built ISA differential                                         *)
(* ------------------------------------------------------------------ *)

let test_scalar_mix () =
  check_both "scalar mix"
    (mk_program
       [ stream
           [ Isa.Mov { dst = 0; src = Isa.Fimm 2.5 };
             Isa.Alu { op = Op.Add; dst = 1; a = Isa.Reg 0; b = Isa.Imm 3 };
             Isa.Cmp { op = Op.Lt; dst = 2; a = Isa.Reg 1; b = Isa.Fimm 6.0 };
             Isa.Sel { dst = 3; cond = Isa.Reg 2; a = Isa.Reg 1; b = Isa.Imm 9 };
             Isa.Alu { op = Op.Max; dst = 4; a = Isa.Imm 7; b = Isa.Imm (-2) };
             Isa.Pid { dst = 5; axis = 0 };
             Isa.Npid { dst = 6; axis = 1 };
             Isa.Exit ] ]);
  check_both "branching loop"
    (mk_program
       [ stream
           [ Isa.Mov { dst = 0; src = Isa.Imm 0 };
             Isa.Cmp { op = Op.Lt; dst = 1; a = Isa.Reg 0; b = Isa.Imm 10 };
             Isa.Brz { cond = Isa.Reg 1; target = 5 };
             Isa.Alu { op = Op.Add; dst = 0; a = Isa.Reg 0; b = Isa.Imm 1 };
             Isa.Bra { target = 1 };
             Isa.Exit ] ])

let tma_mbar_program =
  let rows = 64 and cols = 64 in
  mk_program ~num_mbarriers:2 ~arrive:[| 1; 1 |]
    ~allocs:[ { Isa.alloc_id = 0; slots = 2; bytes_per_slot = rows * cols * 2; label = "t" } ]
    ~param_tys:[ Types.ptr Dtype.F16 ]
    [ stream
        [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
          Isa.Tma_load
            { desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
              dst = { Isa.alloc = 0; slot = Isa.Imm 0 }; rows; cols; dtype = Dtype.F16;
              full = { Isa.base = 0; index = Isa.Imm 0 } };
          Isa.Tma_load
            { desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
              dst = { Isa.alloc = 0; slot = Isa.Imm 1 }; rows; cols; dtype = Dtype.F16;
              full = { Isa.base = 1; index = Isa.Imm 0 } };
          Isa.Mbar_wait { bar = { Isa.base = 1; index = Isa.Imm 0 }; target = Isa.Imm 1 };
          Isa.Exit ] ]

let test_tma_mbar () = check_both "tma + mbar wait" ~params:[ Sim.Rnone ] tma_mbar_program

(* Consumer blocks on the mbar before the producer arrives: exercises
   the decoded engine's event-driven wake path. The Nops skew the
   producer's clock so the consumer genuinely blocks. *)
let mbar_wake_program =
  mk_program ~num_mbarriers:1 ~arrive:[| 1 |]
    [ stream ~role:Op.Producer
        [ Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop;
          Isa.Mbar_arrive { base = 0; index = Isa.Imm 0 }; Isa.Exit ];
      stream
        [ Isa.Mbar_wait { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 1 };
          Isa.Exit ] ]

let ring_wake_program =
  mk_program ~num_rings:1 ~param_tys:[ Types.ptr Dtype.F16 ]
    ~allocs:[ { Isa.alloc_id = 0; slots = 2; bytes_per_slot = 64; label = "r" } ]
    [ stream ~role:Op.Producer
        [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
          Isa.Cp_async
            { ring = 0; desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
              dst = { Isa.alloc = 0; slot = Isa.Imm 0 }; rows = 4; cols = 4;
              dtype = Dtype.F16; last = true };
          Isa.Exit ];
      stream
        [ Isa.Cp_wait_ring { ring = 0; target = Isa.Imm 1 }; Isa.Exit ] ]

let test_cross_wg_wake () =
  check_both "mbar producer/consumer" mbar_wake_program;
  check_both "ring producer/consumer" ~params:[ Sim.Rnone ] ring_wake_program

let two_wg_fence_program =
  mk_program [ stream [ Isa.Nop; Isa.Fence; Isa.Exit ]; stream [ Isa.Fence; Isa.Exit ] ]

let wgmma_program =
  mk_program
    [ stream
        [ Isa.Wgmma { a = Isa.Wreg 0; b = Isa.Wreg 1; acc = 2; m = 64; n = 64; k = 16;
                      dtype = Dtype.F16 };
          Isa.Wgmma_commit;
          Isa.Wgmma { a = Isa.Wreg 0; b = Isa.Wreg 1; acc = 2; m = 64; n = 64; k = 16;
                      dtype = Dtype.F16 };
          Isa.Wgmma_commit;
          Isa.Wgmma_wait 0;
          Isa.Exit ] ]

let test_fence_and_wgmma () =
  check_both "two-wg fence" two_wg_fence_program;
  check_both "wgmma pipeline" wgmma_program

let persistent_pop () = Launch.queue_of_list [ 0; 3; 5; 14 ]

let persistent_program =
  mk_program ~persistent:true
    [ stream
        [ (* 0 *) Isa.Workq_pop { dst = 0 };
          (* 1 *) Isa.Cmp { op = Op.Lt; dst = 1; a = Isa.Reg 0; b = Isa.Imm 0 };
          (* 2 *) Isa.Brnz { cond = Isa.Reg 1; target = 4 };
          (* 3 *) Isa.Bra { target = 0 };
          (* 4 *) Isa.Exit ] ]

let test_persistent_queue () =
  check_both "persistent work queue" ~mk_pop:persistent_pop persistent_program

(* ------------------------------------------------------------------ *)
(* Satellite regressions                                               *)
(* ------------------------------------------------------------------ *)

(* A WG blocked on a fence whose peer exits without fencing must be
   released by the exit (live count shrinks), not deadlock. *)
let test_fence_released_on_exit () =
  let p =
    mk_program
      [ stream [ Isa.Fence; Isa.Exit ]; stream [ Isa.Nop; Isa.Nop; Isa.Exit ] ]
  in
  check_both "fence released by peer exit" p

(* Deadlock diagnostics carry the observed completion count, and both
   engines produce the identical report. *)
let test_deadlock_diagnostics () =
  let ring_p =
    mk_program ~num_rings:1
      [ stream [ Isa.Cp_wait_ring { ring = 0; target = Isa.Imm 2 }; Isa.Exit ] ]
  in
  (match run_both_err ring_p with
  | Some mr, Some md ->
    Alcotest.(check string) "ring deadlock report identical" mr md;
    Alcotest.(check bool) "ring report has (have 0)" true
      (Astring.String.is_infix ~affix:"ring 0 >= 2 (have 0)" mr)
  | _ -> Alcotest.fail "expected both engines to deadlock");
  let mbar_p =
    mk_program ~num_mbarriers:1 ~arrive:[| 1 |]
      [ stream
          [ Isa.Mbar_arrive { base = 0; index = Isa.Imm 0 };
            Isa.Mbar_wait { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 3 };
            Isa.Exit ] ]
  in
  match run_both_err mbar_p with
  | Some mr, Some md ->
    Alcotest.(check string) "mbar deadlock report identical" mr md;
    Alcotest.(check bool) "mbar report has (have 1)" true
      (Astring.String.is_infix ~affix:"mbar 0 >= 3 (have 1)" mr)
  | _ -> Alcotest.fail "expected both engines to deadlock"

(* The Ldg gather bandwidth is a config knob (was a magic 12.0). *)
let test_ldg_bandwidth_config () =
  let p bytes_rows =
    mk_program ~param_tys:[ Types.ptr Dtype.F16 ]
      [ stream
          [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
            Isa.Ldg
              { dst = 2; desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                rows = bytes_rows; cols = 4; dtype = Dtype.F16 };
            Isa.Exit ] ]
  in
  let cycles ~cfg =
    let o, _d = run_both ~params:[ Sim.Rnone ] ~cfg (p 4) in
    Alcotest.(check bool) "ldg engines agree" true (outcomes_equal o _d);
    o.Sim.cycles
  in
  let base = cycles ~cfg in
  let expect = 20.0 +. cfg.Config.tma_latency +. (32.0 /. cfg.Config.ldg_bytes_per_cycle) in
  Alcotest.(check (float 1e-9)) "ldg cost uses config field" expect base;
  let slow = cycles ~cfg:{ cfg with Config.ldg_bytes_per_cycle = 6.0 } in
  Alcotest.(check (float 1e-9)) "halving bandwidth doubles gather time"
    (20.0 +. cfg.Config.tma_latency +. (32.0 /. 6.0))
    slow

(* ------------------------------------------------------------------ *)
(* Engine selection + decode cache                                     *)
(* ------------------------------------------------------------------ *)

let test_engine_selection () =
  Alcotest.(check bool) "cfg.engine = Reference selected" true
    (Engine.resolve { cfg with Config.engine = Some Config.Reference } = Config.Reference);
  Alcotest.(check bool) "cfg.engine = Decoded selected" true
    (Engine.resolve { cfg with Config.engine = Some Config.Decoded } = Config.Decoded);
  Alcotest.(check bool) "collect_trace no longer forces an engine swap" true
    (Engine.resolve
       { cfg with Config.engine = Some Config.Decoded; collect_trace = true }
    = Config.Decoded);
  Engine.set_forced (Some Config.Reference);
  let forced = Engine.resolve { cfg with Config.engine = Some Config.Decoded } in
  Engine.set_forced None;
  Alcotest.(check bool) "forced override beats cfg" true (forced = Config.Reference);
  if Sys.getenv_opt "TAWA_ENGINE" = None then
    Alcotest.(check bool) "default engine is Decoded" true
      (Engine.resolve { cfg with Config.engine = None } = Config.Decoded)

let test_decode_cache () =
  if Progcache.is_enabled () then begin
    Engine.clear_decode_cache ();
    let p = mk_program [ stream [ Isa.Nop; Isa.Exit ] ] in
    let dcfg = { cfg with Config.engine = Some Config.Decoded } in
    ignore (Engine.prepare ~cfg:dcfg p);
    ignore (Engine.prepare ~cfg:dcfg p);
    let s = Engine.decode_cache_stats () in
    Alcotest.(check int) "one decode" 1 s.Progcache.misses;
    Alcotest.(check int) "one cache hit" 1 s.Progcache.hits;
    (* A different cost model must miss (costs are folded at decode). *)
    ignore
      (Engine.prepare ~cfg:{ dcfg with Config.scalar_cycles = 99.0 } p);
    let s = Engine.decode_cache_stats () in
    Alcotest.(check int) "config change misses" 2 s.Progcache.misses
  end

(* The fingerprint memo is keyed by physical identity but must always
   answer with the content digest: equal for a structurally equal
   copy, and unchanged after the memo is emptied. *)
let test_fingerprint_memo () =
  let p = mk_program [ stream [ Isa.Nop; Isa.Exit ] ] in
  let content = Digest.to_hex (Digest.string (Marshal.to_string p [])) in
  Alcotest.(check string) "content digest" content (Progcache.program_fingerprint p);
  Alcotest.(check string) "memoized" content (Progcache.program_fingerprint p);
  let copy : Isa.program = Marshal.from_string (Marshal.to_string p []) 0 in
  Alcotest.(check string) "structural copy" content (Progcache.program_fingerprint copy);
  Engine.clear_decode_cache ();
  Alcotest.(check string) "after clear" content (Progcache.program_fingerprint p);
  let other = mk_program [ stream [ Isa.Nop; Isa.Nop; Isa.Exit ] ] in
  Alcotest.(check bool) "distinct program, distinct digest" true
    (Progcache.program_fingerprint other <> content)

(* ------------------------------------------------------------------ *)
(* Typed register planes vs rt-array model                             *)
(* ------------------------------------------------------------------ *)

type wop =
  | Wint of int * int
  | Wfloat of int * float
  | Wbool of int * bool
  | Wnone of int
  | Wcopy of int * int

let gen_wop =
  QCheck.Gen.(
    let reg = int_range 0 130 in
    oneof
      [ map2 (fun r v -> Wint (r, v)) reg (int_range (-1000000) 1000000);
        map2 (fun r v -> Wfloat (r, v)) reg (float_range (-1e6) 1e6);
        map2 (fun r v -> Wbool (r, v)) reg bool;
        map (fun r -> Wnone r) reg;
        map2 (fun a b -> Wcopy (a, b)) reg reg ])

let wop_print = function
  | Wint (r, v) -> Printf.sprintf "r%d<-i%d" r v
  | Wfloat (r, v) -> Printf.sprintf "r%d<-f%g" r v
  | Wbool (r, v) -> Printf.sprintf "r%d<-b%b" r v
  | Wnone r -> Printf.sprintf "r%d<-none" r
  | Wcopy (a, b) -> Printf.sprintf "r%d<-r%d" b a

let arb_wops =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map wop_print l))
    QCheck.Gen.(list_size (int_range 0 60) gen_wop)

(* Reference coercions on the boxed model value (as_int / as_float /
   as_bool from the reference engine); [None] = must raise. *)
let model_int = function
  | Sim.Rint i -> Some i
  | Sim.Rbool b -> Some (if b then 1 else 0)
  | Sim.Rfloat f -> Some (int_of_float f)
  | _ -> None

let model_float = function
  | Sim.Rfloat f -> Some f
  | Sim.Rint i -> Some (Float.of_int i)
  | Sim.Rbool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let model_bool = function
  | Sim.Rbool b -> Some b
  | Sim.Rint i -> Some (i <> 0)
  | Sim.Rfloat f -> Some (f <> 0.0)
  | _ -> None

let coerces_like want got =
  match (want, got ()) with
  | Some w, Ok g -> w = g
  | None, Error (Sim.Sim_error _) -> true
  | _ -> false

let attempt f = try Ok (f ()) with e -> Error e

let prop_planes_model =
  QCheck.Test.make ~name:"planes: typed writes/copies match rt-array model" ~count:200
    arb_wops (fun ops ->
      let p = Decode.make_planes 64 in
      let model = Array.make 200 (Sim.Rint 0) in
      List.iter
        (function
          | Wint (r, v) ->
            Decode.set_int p r v;
            model.(r) <- Sim.Rint v
          | Wfloat (r, v) ->
            Decode.set_float p r v;
            model.(r) <- Sim.Rfloat v
          | Wbool (r, v) ->
            Decode.set_bool p r v;
            model.(r) <- Sim.Rbool v
          | Wnone r ->
            Decode.set_none p r;
            model.(r) <- Sim.Rnone
          | Wcopy (a, b) ->
            Decode.copy_reg p ~src:a ~dst:b;
            model.(b) <- model.(a))
        ops;
      (* Reads past any written register (150..199) must see the
         default Rint 0, like the reference's fixed-fill file. *)
      Array.for_all Fun.id
        (Array.init 200 (fun r ->
             Decode.get_rt p r = model.(r)
             && coerces_like (model_int model.(r)) (fun () ->
                    attempt (fun () -> Decode.get_int p r))
             && coerces_like (model_float model.(r)) (fun () ->
                    attempt (fun () -> Decode.get_float p r))
             && coerces_like (model_bool model.(r)) (fun () ->
                    attempt (fun () -> Decode.get_bool p r)))))

(* ------------------------------------------------------------------ *)
(* Compiled-kernel differential (functional + timing)                  *)
(* ------------------------------------------------------------------ *)

let gemm_functional_diff compiled ~bm ~bn ~kk ~grid_m ~grid_n =
  let m = grid_m * bm and n = grid_n * bn in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:7 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:8 [| kk; n |] in
  let run engine =
    let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    let fcfg = { Config.functional_test with Config.engine = Some engine } in
    let cycles =
      Launch.run_grid_functional ~cfg:fcfg compiled.Flow.program
        ~params:
          [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n;
            Sim.Rint kk ]
        ~grid:(grid_m, grid_n, 1)
    in
    (c, cycles)
  in
  let c_r, cy_r = run Config.Reference in
  let c_d, cy_d = run Config.Decoded in
  Tensor.equal c_r c_d && cy_r = cy_d

let gemm_timing_diff compiled ~bm ~bn ~kk ~grid_m ~grid_n =
  let m = grid_m * bm and n = grid_n * bn in
  let run engine =
    Launch.estimate
      ~cfg:{ cfg with Config.engine = Some engine }
      compiled.Flow.program
      ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]
      ~grid:(grid_m, grid_n, 1) ~flops:1e9
  in
  let r = run Config.Reference and d = run Config.Decoded in
  r.Launch.cycles = d.Launch.cycles
  && r.Launch.stats.Sim.tc_busy = d.Launch.stats.Sim.tc_busy
  && r.Launch.stats.Sim.tma_busy = d.Launch.stats.Sim.tma_busy
  && r.Launch.stats.Sim.steps = d.Launch.stats.Sim.steps

let fuzz_compiles (s : Test_fuzz.spec) =
  [ ("ws d2p2", Test_fuzz.ws_compile ~d:2 ~p:2);
    ("sw-pipeline", Flow.compile_sw_pipelined ~stages:3);
    ( "persistent",
      Flow.compile
        ~options:
          { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = true;
            use_coarse = false } ) ]
  |> List.map (fun (name, f) -> (name, f (Test_fuzz.build_kernel s)))

let prop_engine_fuzz =
  QCheck.Test.make
    ~name:"fuzz: decoded == reference across pipelines (functional + timing)" ~count:20
    Test_fuzz.arb_spec (fun s ->
      List.for_all
        (fun (_, compiled) ->
          gemm_functional_diff compiled ~bm:s.Test_fuzz.bm ~bn:s.Test_fuzz.bn
            ~kk:(s.Test_fuzz.trip * s.Test_fuzz.bk) ~grid_m:2 ~grid_n:2
          && gemm_timing_diff compiled ~bm:s.Test_fuzz.bm ~bn:s.Test_fuzz.bn
               ~kk:(s.Test_fuzz.trip * s.Test_fuzz.bk) ~grid_m:2 ~grid_n:2)
        (fuzz_compiles s))

(* Coarse-pipelined attention: the remaining frontend shape (softmax
   running state, Tile_select/Tile_cmp, transposed SMEM views). *)
let test_attention_diff () =
  let kernel = Tawa_frontend.Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 () in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      kernel
  in
  let l = 32 and d = 8 in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:3 [| l; d |] in
  let run engine =
    let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
    let fcfg = { Config.functional_test with Config.engine = Some engine } in
    let cycles =
      Launch.run_grid_functional ~cfg:fcfg compiled.Flow.program
        ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
        ~grid:(l / 16, 1, 1)
    in
    (o, cycles)
  in
  let o_r, cy_r = run Config.Reference in
  let o_d, cy_d = run Config.Decoded in
  Alcotest.(check bool) "attention tensors bit-identical" true (Tensor.equal o_r o_d);
  Alcotest.(check (float 0.0)) "attention cycles identical" cy_r cy_d

(* Cooperative consumer warp groups (coop > 1 divides tile costs). *)
let test_coop_diff () =
  let tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 2; persistent = false;
          use_coarse = false }
      (Tawa_frontend.Kernels.gemm ~tiles ())
  in
  Alcotest.(check bool) "coop=2 functional diff" true
    (gemm_functional_diff compiled ~bm:16 ~bn:16 ~kk:16 ~grid_m:2 ~grid_n:2);
  Alcotest.(check bool) "coop=2 timing diff" true
    (gemm_timing_diff compiled ~bm:16 ~bn:16 ~kk:16 ~grid_m:2 ~grid_n:2)

(* ------------------------------------------------------------------ *)
(* Scalar units: opcode x operand shape x operand kind                 *)
(* ------------------------------------------------------------------ *)

(* The decoded engine compiles [Alu]/[Cmp] into three arms per opcode:
   register/register and register/immediate arms for registers below
   64 (the planes' floor capacity), and a generic arm for everything
   else. Random single-stream programs of Mov/Alu/Cmp/Sel reach every
   arm with every kind of value, including the ones that make the
   reference raise. Functional runs also compare the final register
   files (floats by their bits); timing runs exercise dead-write
   elision, which must never swallow an error. *)

let sc_ints = [ 0; 1; -1; min_int; max_int; 3; -7 ]

let sc_floats =
  [ Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 4.9e-324; 1.5; -2.25;
    3.0; -7.0 ]

let sc_binops =
  Op.[ Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor ]

let sc_cmps = Op.[ Eq; Ne; Lt; Le; Gt; Ge ]
let sc_nparams = 8
let sc_tensor = Tensor.create ~dtype:Dtype.F16 [| 2; 2 |]

let gen_sc_param =
  QCheck.Gen.(
    frequency
      [ (4, map (fun i -> Sim.Rint i) (oneofl sc_ints));
        (4, map (fun f -> Sim.Rfloat f) (oneofl sc_floats));
        (2, map (fun b -> Sim.Rbool b) bool);
        (1, return Sim.Rnone);
        (1, return (Sim.Rtensor sc_tensor)) ])

(* Low registers hit the monolithic arms, high ones the generic arm. *)
let gen_sc_reg = QCheck.Gen.(oneof [ int_range 0 15; int_range 64 71 ])

let gen_sc_operand =
  QCheck.Gen.(
    frequency
      [ (2, map (fun r -> Isa.Reg r) (int_range 0 15));
        (1, map (fun r -> Isa.Reg r) (int_range 64 71));
        (1, map (fun i -> Isa.Imm i) (oneofl sc_ints));
        (1, map (fun f -> Isa.Fimm f) (oneofl sc_floats)) ])

let gen_sc_instr =
  QCheck.Gen.(
    frequency
      [ (1, map2 (fun dst src -> Isa.Mov { dst; src }) gen_sc_reg gen_sc_operand);
        ( 3,
          map4
            (fun op dst a b -> Isa.Alu { op; dst; a; b })
            (oneofl sc_binops) gen_sc_reg gen_sc_operand gen_sc_operand );
        ( 2,
          map4
            (fun op dst a b -> Isa.Cmp { op; dst; a; b })
            (oneofl sc_cmps) gen_sc_reg gen_sc_operand gen_sc_operand );
        ( 1,
          map4
            (fun dst cond a b -> Isa.Sel { dst; cond; a; b })
            gen_sc_reg gen_sc_operand gen_sc_operand gen_sc_operand ) ])

let sc_print (params, instrs) =
  let rt = function
    | Sim.Rint i -> string_of_int i
    | Sim.Rfloat f -> Printf.sprintf "%h" f
    | Sim.Rbool b -> string_of_bool b
    | Sim.Rnone -> "none"
    | Sim.Rtensor _ -> "tensor"
    | Sim.Rdesc _ -> "desc"
  in
  Printf.sprintf "params [%s]\n%s"
    (String.concat "; " (List.map rt params))
    (String.concat "\n" (List.map Isa.to_string instrs))

let arb_scalar_prog =
  QCheck.make ~print:sc_print
    QCheck.Gen.(
      pair
        (list_repeat sc_nparams gen_sc_param)
        (list_size (int_range 1 12) gen_sc_instr))

(* Parameter types the launch conforms to, so timing runs take the
   optimized (elided) streams. *)
let sc_param_ty = function
  | Sim.Rint _ -> Types.TScalar Dtype.I32
  | Sim.Rfloat _ | Sim.Rbool _ -> Types.TScalar Dtype.F32
  | _ -> Types.ptr Dtype.F16

let rt_same (a : Sim.rt) (b : Sim.rt) =
  match (a, b) with
  | Sim.Rfloat x, Sim.Rfloat y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Sim.Rtensor x, Sim.Rtensor y -> x == y
  | Sim.Rdesc _, _ | _, Sim.Rdesc _ -> false
  | _ -> a = b

let sc_regs = List.init 16 Fun.id @ List.init 8 (fun i -> 64 + i)

(* One CTA on one engine: the outcome plus the final register values,
   or the engine's error message. *)
let run_scalar engine cfg p params =
  let num_programs = [| 1; 1; 1 |] in
  try
    match engine with
    | Config.Reference ->
      let cta =
        Sim.create ~cfg ~program:p ~params ~num_programs ~pop_global:Launch.no_queue ()
      in
      let o = Sim.run cta in
      Ok (o, List.map (Sim.reg_read cta.Sim.wgs.(0)) sc_regs)
    | Config.Decoded -> (
      match Engine.prepare ~cfg:{ cfg with Config.engine = Some Config.Decoded } p with
      | Engine.Pdec d ->
        let ctx =
          Decode.make_ctx d ~params ~num_programs ~pid:[| 0; 0; 0 |]
            ~pop_global:Launch.no_queue
        in
        let o = Engine.run_decoded ctx in
        let planes = ctx.Decode.wgs.(0).Decode.planes in
        Ok (o, List.map (Decode.get_rt planes) sc_regs)
      | Engine.Pref _ -> Alcotest.fail "decoded engine not selected")
  with Sim.Sim_error m -> Error m

let prop_scalar_units =
  QCheck.Test.make ~count:1000
    ~name:"scalar units: decoded == reference per opcode x operand shape x kind"
    arb_scalar_prog (fun (params, instrs) ->
      let p =
        mk_program ~param_tys:(List.map sc_param_ty params)
          [ stream (instrs @ [ Isa.Exit ]) ]
      in
      List.for_all
        (fun (cfg, compare_regs) ->
          match (run_scalar Config.Reference cfg p params,
                 run_scalar Config.Decoded cfg p params) with
          | Ok (o_r, regs_r), Ok (o_d, regs_d) ->
            outcomes_equal o_r o_d
            && ((not compare_regs) || List.for_all2 rt_same regs_r regs_d)
          | Error m_r, Error m_d -> m_r = m_d
          | Ok _, Error m -> QCheck.Test.fail_reportf "only decoded raised: %s" m
          | Error m, Ok _ -> QCheck.Test.fail_reportf "only reference raised: %s" m)
        [ (Config.functional_test, true); (cfg, false) ])

(* ------------------------------------------------------------------ *)
(* Step-budget parity                                                  *)
(* ------------------------------------------------------------------ *)

(* The decoded engine charges the budget per source instruction ahead
   of execution, across cost blocks, superblocks and stay-in-slot
   continuation, so it must exhaust exactly where the reference does.
   For every budget around the full run's step count S, both engines
   succeed with equal outcomes (exactly when budget >= S) or both
   raise the same error. *)
let check_budget_parity ?(params = []) ?(mk_pop = fun () -> Launch.no_queue)
    ?(num_programs = [| 4; 4; 1 |]) name p =
  let run engine max_steps =
    try
      Ok
        (Engine.run_cta ?max_steps
           ~cfg:{ cfg with Config.engine = Some engine }
           ~program:p ~params ~num_programs ~pop_global:(mk_pop ()) ())
    with Sim.Sim_error m -> Error m
  in
  let s =
    match run Config.Reference None with
    | Ok o -> o.Sim.stats.Sim.steps
    | Error m -> Alcotest.failf "%s: full run failed: %s" name m
  in
  for budget = max 1 (s - 64) to s + 1 do
    match (run Config.Reference (Some budget), run Config.Decoded (Some budget)) with
    | Ok o_r, Ok o_d ->
      if budget < s then Alcotest.failf "%s: budget %d < %d steps succeeded" name budget s;
      if not (outcomes_equal o_r o_d) then
        Alcotest.failf "%s: budget %d: outcomes differ" name budget
    | Error m_r, Error m_d ->
      if budget >= s then Alcotest.failf "%s: budget %d >= %d steps failed: %s" name budget s m_r;
      Alcotest.(check string) (Printf.sprintf "%s: budget %d" name budget)
        "sim: step budget exhausted" m_r;
      Alcotest.(check string) (Printf.sprintf "%s: budget %d decoded" name budget) m_r m_d
    | Ok _, Error m -> Alcotest.failf "%s: budget %d: only decoded raised: %s" name budget m
    | Error m, Ok _ -> Alcotest.failf "%s: budget %d: only reference raised: %s" name budget m
  done

let test_budget_parity () =
  check_budget_parity "tma + mbar wait" ~params:[ Sim.Rnone ] tma_mbar_program;
  check_budget_parity "cross-wg wake (mbar)" mbar_wake_program;
  check_budget_parity "cross-wg wake (ring)" ~params:[ Sim.Rnone ] ring_wake_program;
  check_budget_parity "two-wg fence" two_wg_fence_program;
  check_budget_parity "wgmma pipeline" wgmma_program;
  check_budget_parity "persistent work queue" ~mk_pop:persistent_pop persistent_program;
  (* A compiled warp-specialized GEMM in timing mode: cost blocks,
     superblocks and cross-WG aref traffic in one run. *)
  let tiles = { Tawa_frontend.Kernels.block_m = 64; block_n = 64; block_k = 32 } in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 2; num_consumer_wgs = 1;
          persistent = false; use_coarse = false }
      (Tawa_frontend.Kernels.gemm ~tiles ())
  in
  check_budget_parity "warp-specialized gemm" ~num_programs:[| 2; 2; 1 |]
    ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint 128; Sim.Rint 128; Sim.Rint 256 ]
    compiled.Flow.program

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "engine.differential",
      [
        Alcotest.test_case "scalar mix + loop" `Quick test_scalar_mix;
        Alcotest.test_case "tma + mbar wait" `Quick test_tma_mbar;
        Alcotest.test_case "cross-wg wake (mbar, ring)" `Quick test_cross_wg_wake;
        Alcotest.test_case "fence + wgmma" `Quick test_fence_and_wgmma;
        Alcotest.test_case "persistent work queue" `Quick test_persistent_queue;
        Alcotest.test_case "attention coarse pipeline" `Quick test_attention_diff;
        Alcotest.test_case "cooperative warp groups" `Quick test_coop_diff;
      ]
      @ qsuite [ prop_engine_fuzz; prop_scalar_units ] );
    ( "engine.regressions",
      [
        Alcotest.test_case "fence released on exit" `Quick test_fence_released_on_exit;
        Alcotest.test_case "deadlock diagnostics" `Quick test_deadlock_diagnostics;
        Alcotest.test_case "ldg bandwidth config" `Quick test_ldg_bandwidth_config;
        Alcotest.test_case "engine selection" `Quick test_engine_selection;
        Alcotest.test_case "decode cache" `Quick test_decode_cache;
        Alcotest.test_case "fingerprint memo" `Quick test_fingerprint_memo;
        Alcotest.test_case "step-budget parity" `Quick test_budget_parity;
      ] );
    ("engine.planes", qsuite [ prop_planes_model ]);
  ]
