(* Tests for the public API layer: the compile flow, the autotuner and
   its Fig. 11 grid, workload definitions, and report formatting — plus
   the ping-pong protocol of the future-work section. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_gpusim
open Tawa_aref

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }
let naive = { Flow.default_options with strategy = Flow.Naive }

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)
(* ------------------------------------------------------------------ *)

let test_flow_compile_ws () =
  let c = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "ws" true c.Flow.warp_specialized;
  Alcotest.(check int) "two streams" 2 (List.length c.Flow.program.Tawa_machine.Isa.streams);
  Alcotest.(check bool) "ir dump mentions aref" true
    (Astring.String.is_infix ~affix:"tawa.aref_create" (Flow.dump_ir c));
  Alcotest.(check bool) "asm dump mentions wgmma" true
    (Astring.String.is_infix ~affix:"wgmma" (Flow.dump_asm c))

let test_flow_compile_sw () =
  let c = Test_fuzz.sw_compile (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "not ws" false c.Flow.warp_specialized;
  Alcotest.(check int) "one stream" 1 (List.length c.Flow.program.Tawa_machine.Isa.streams);
  Alcotest.(check bool) "cp.async asm" true
    (Astring.String.is_infix ~affix:"cp.async" (Flow.dump_asm c))

let test_flow_compile_naive () =
  let c = Flow.compile ~options:naive (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "ld.global asm" true
    (Astring.String.is_infix ~affix:"ld.global" (Flow.dump_asm c))

let test_flow_attention_coarse () =
  let c =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())
  in
  Alcotest.(check bool) "coarse applied" true c.Flow.coarse

(* All compile paths produce functionally identical GEMMs. *)
let test_flow_all_paths_agree () =
  let kernel = Kernels.gemm ~tiles:small_tiles () in
  let m = 32 and n = 32 and kk = 24 in
  let run (c : Flow.compiled) =
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
    let cbuf = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    ignore
      (Launch.run_grid_functional ~cfg:Config.functional_test c.Flow.program
         ~params:
           [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor cbuf; Sim.Rint m; Sim.Rint n;
             Sim.Rint kk ]
         ~grid:(m / 16, n / 16, 1));
    cbuf
  in
  let reference = run (Flow.compile kernel) in
  List.iter
    (fun (label, c) ->
      Alcotest.(check bool) (label ^ " agrees") true
        (Tensor.max_abs_diff reference (run c) = 0.0))
    [ ( "sw-pipelined",
        Flow.compile
          ~options:
            { Flow.default_options with strategy = Flow.Sw_pipelined 2; aref_depth = 2 }
          kernel );
      ("naive", Flow.compile ~options:naive kernel);
      ( "sync-tma",
        Flow.compile ~options:{ Flow.default_options with strategy = Flow.Sync_tma } kernel );
      ( "persistent+coop",
        Flow.compile
          ~options:
            { Flow.default_options with aref_depth = 3; mma_depth = 2; num_consumer_wgs = 2; persistent = true;
              use_coarse = false }
          kernel ) ]

(* ------------------------------------------------------------------ *)
(* Compile cache                                                       *)
(* ------------------------------------------------------------------ *)

let default_opts = Flow.default_options

(* Two separately-built gemm kernels are structurally identical but
   carry different global SSA value ids; the content fingerprint must
   erase that difference so the second compile hits. *)
let test_cache_hit_on_identical_kernel () =
  Flow.clear_cache ();
  let c1 = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  let c2 = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  let s = Flow.cache_stats () in
  Alcotest.(check int) "one miss" 1 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "one hit" 1 s.Tawa_machine.Progcache.hits;
  (* A hit shares the compiled artifact, it doesn't recompile. *)
  Alcotest.(check bool) "same program" true (c1.Flow.program == c2.Flow.program);
  Alcotest.(check bool) "same transformed IR" true
    (c1.Flow.transformed == c2.Flow.transformed)

let test_cache_miss_on_option_change () =
  Flow.clear_cache ();
  let kernel () = Kernels.gemm ~tiles:small_tiles () in
  ignore (Flow.compile ~options:default_opts (kernel ()));
  (* Every field of the options record is part of the key. *)
  List.iter
    (fun options -> ignore (Flow.compile ~options (kernel ())))
    [ { default_opts with Flow.aref_depth = 3 };
      { default_opts with Flow.mma_depth = 1 };
      { default_opts with Flow.num_consumer_wgs = 2 };
      { default_opts with Flow.persistent = true } ];
  let s = Flow.cache_stats () in
  Alcotest.(check int) "five distinct configs miss" 5 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "no hits" 0 s.Tawa_machine.Progcache.hits

let test_cache_miss_on_kernel_change () =
  Flow.clear_cache ();
  ignore (Flow.compile (Kernels.gemm ~tiles:small_tiles ()));
  (* A different tile attribute changes the printed kernel. *)
  ignore
    (Flow.compile
       (Kernels.gemm ~tiles:{ small_tiles with Kernels.block_k = 16 } ()));
  (* A different dtype changes parameter types. *)
  ignore (Flow.compile (Kernels.gemm ~tiles:small_tiles ~dtype:Dtype.F8E4M3 ()));
  (* A different strategy never collides, even on the same kernel. *)
  ignore (Flow.compile ~options:naive (Kernels.gemm ~tiles:small_tiles ()));
  let s = Flow.cache_stats () in
  Alcotest.(check int) "all four miss" 4 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "no hits" 0 s.Tawa_machine.Progcache.hits

let test_cache_disabled () =
  Flow.clear_cache ();
  Tawa_machine.Progcache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Tawa_machine.Progcache.set_enabled true)
    (fun () ->
      let c1 = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
      let c2 = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
      let s = Flow.cache_stats () in
      Alcotest.(check int) "no hits when disabled" 0 s.Tawa_machine.Progcache.hits;
      Alcotest.(check int) "no misses counted when disabled" 0
        s.Tawa_machine.Progcache.misses;
      Alcotest.(check bool) "distinct programs" true
        (c1.Flow.program != c2.Flow.program))

let test_cached_program_still_correct () =
  (* The shared artifact of a cache hit simulates identically to the
     miss that produced it. *)
  Flow.clear_cache ();
  let run () =
    let c = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
    let m = 16 and n = 16 and kk = 16 in
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:5 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:6 [| kk; n |] in
    let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    ignore
      (Launch.run_grid_functional ~cfg:Config.functional_test c.Flow.program
         ~params:
           [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
             Sim.Rint kk ]
         ~grid:(1, 1, 1));
    out
  in
  let miss = run () in
  let hit = run () in
  Alcotest.(check int) "second run hit" 1
    (Flow.cache_stats ()).Tawa_machine.Progcache.hits;
  Alcotest.(check bool) "hit output identical" true (Tensor.equal miss hit)

(* ------------------------------------------------------------------ *)
(* Autotune                                                            *)
(* ------------------------------------------------------------------ *)

let test_candidates_respect_resources () =
  let cands = Autotune.gemm_candidates ~dtype:Dtype.F16 () in
  Alcotest.(check bool) "nonempty" true (cands <> []);
  List.iter
    (fun (c : Autotune.candidate) ->
      Alcotest.(check bool) "D >= P" true (c.Autotune.aref_depth >= c.Autotune.mma_depth);
      (* 128x256 tiles require two cooperating consumer WGs. *)
      if c.Autotune.tiles.Kernels.block_n = 256 then
        Alcotest.(check int) "large tile coop" 2 c.Autotune.coop)
    cands

let test_tune_picks_feasible_best () =
  let shape = { Workloads.m = 2048; n = 2048; k = 4096; dtype = Dtype.F16 } in
  let best = Autotune.tune_gemm shape in
  Alcotest.(check bool) "positive tflops" true (best.Autotune.tflops > 100.0);
  (* The best must be at least as good as a deliberately weak config. *)
  let weak =
    Autotune.measure_gemm ~cfg:Config.h100 shape
      { Autotune.tiles = small_tiles; aref_depth = 1; mma_depth = 1; coop = 1;
        persistent = false; coarse = false; strategy = Flow.Warp_specialized }
  in
  Alcotest.(check bool) "beats weak config" true
    (best.Autotune.tflops >= weak.Autotune.tflops)

let test_dp_grid_holes () =
  let shape = Workloads.paper_gemm 4096 in
  let grid =
    Autotune.dp_grid ~tiles:small_tiles ~coop:1 ~persistent:false shape ~max_d:3 ~max_p:3
  in
  (* Row D=1: P=2 and P=3 are infeasible holes. *)
  (match grid with
  | row1 :: _ ->
    Alcotest.(check bool) "D1P1 feasible" true (List.nth row1 0 <> None);
    Alcotest.(check bool) "D1P2 hole" true (List.nth row1 1 = None);
    Alcotest.(check bool) "D1P3 hole" true (List.nth row1 2 = None)
  | [] -> Alcotest.fail "empty grid");
  (* Deeper D never hurts at P=1 (more prefetch slack). *)
  let at d p =
    match List.nth (List.nth grid (d - 1)) (p - 1) with
    | Some m -> m.Autotune.tflops
    | None -> 0.0
  in
  Alcotest.(check bool) "D3P1 >= D1P1" true (at 3 1 >= at 1 1)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_shapes () =
  let s = Workloads.paper_gemm 1024 in
  Alcotest.(check int) "m" 8192 s.Workloads.m;
  Alcotest.(check (float 1.0)) "flops" (2.0 *. 8192.0 *. 8192.0 *. 1024.0)
    (Workloads.gemm_flops s);
  let grid, params = Workloads.gemm_launch s ~tiles:{ Kernels.block_m = 128; block_n = 128; block_k = 64 } in
  Alcotest.(check bool) "grid" true (grid = (64, 64, 1));
  Alcotest.(check int) "params" 6 (List.length params)

let test_workload_mha () =
  let s = Workloads.paper_mha ~causal:true 4096 in
  let grid, _ = Workloads.mha_launch s ~block_m:128 in
  Alcotest.(check bool) "grid covers heads" true (grid = (32, 128, 1));
  Alcotest.(check (float 1.0)) "causal flops halve"
    (Workloads.mha_flops { s with Workloads.causal = false } /. 2.0)
    (Workloads.mha_flops s)

let test_workload_groups () =
  List.iter
    (fun (label, g) ->
      Alcotest.(check bool) (label ^ " nonempty") true (g <> []);
      Alcotest.(check bool) (label ^ " flops positive") true
        (Workloads.grouped_gemm_flops g > 0.0))
    Workloads.paper_groups

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_render () =
  let s = Report.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "5 lines (incl trailing empty)" 5 (List.length lines);
  Alcotest.(check bool) "separator" true (Astring.String.is_infix ~affix:"---" s);
  (* Columns aligned: every data line has the same length. *)
  (match lines with
  | l1 :: l2 :: l3 :: _ ->
    Alcotest.(check int) "aligned" (String.length l1) (String.length l3);
    ignore l2
  | _ -> Alcotest.fail "lines")

let test_report_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of 2,8" 4.0 (Report.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Report.geomean [])

(* ------------------------------------------------------------------ *)
(* Ping-pong protocol (paper SVI)                                      *)
(* ------------------------------------------------------------------ *)

let test_pingpong_completes () =
  let rings = [| Ring.create ~depth:2; Ring.create ~depth:2 |] in
  let agents = Schedule.pingpong_program ~n:16 in
  let tick = ref 0 in
  let choose r =
    incr tick;
    r.(!tick mod Array.length r)
  in
  match Schedule.run ~rings ~choose agents with
  | Schedule.Completed results ->
    (* Each agent consumed the other's parity: agent 0 gets odd values,
       agent 1 gets even values, each in order. *)
    let a0 = List.assoc "pingpong-0" results in
    let a1 = List.assoc "pingpong-1" results in
    Alcotest.(check (list int)) "agent0 receives odds" [ 1; 3; 5; 7; 9; 11; 13; 15 ] a0;
    Alcotest.(check (list int)) "agent1 receives evens" [ 0; 2; 4; 6; 8; 10; 12; 14 ] a1
  | Schedule.Deadlock ws -> Alcotest.failf "deadlock: %s" (String.concat "," ws)
  | Schedule.Error e -> Alcotest.fail e

let prop_pingpong_deadlock_free =
  QCheck.Test.make ~name:"ping-pong deadlock-free under random schedules" ~count:200
    QCheck.(triple (int_range 1 3) (int_range 2 20) int)
    (fun (depth, half, seed) ->
      let n = 2 * half in
      let rings = [| Ring.create ~depth; Ring.create ~depth |] in
      let agents = Schedule.pingpong_program ~n in
      let state = ref (seed land 0xFFFFFF) in
      let choose r =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        r.(!state mod Array.length r)
      in
      match Schedule.run ~rings ~choose agents with
      | Schedule.Completed _ -> true
      | Schedule.Deadlock _ | Schedule.Error _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "core.flow",
      [
        Alcotest.test_case "compile ws" `Quick test_flow_compile_ws;
        Alcotest.test_case "compile sw" `Quick test_flow_compile_sw;
        Alcotest.test_case "compile naive" `Quick test_flow_compile_naive;
        Alcotest.test_case "attention coarse" `Quick test_flow_attention_coarse;
        Alcotest.test_case "all paths agree" `Quick test_flow_all_paths_agree;
      ] );
    ( "core.cache",
      [
        Alcotest.test_case "hit on identical kernel" `Quick
          test_cache_hit_on_identical_kernel;
        Alcotest.test_case "miss on option change" `Quick test_cache_miss_on_option_change;
        Alcotest.test_case "miss on kernel change" `Quick test_cache_miss_on_kernel_change;
        Alcotest.test_case "disabled cache" `Quick test_cache_disabled;
        Alcotest.test_case "cached program correct" `Quick
          test_cached_program_still_correct;
      ] );
    ( "core.autotune",
      [
        Alcotest.test_case "candidates respect resources" `Quick
          test_candidates_respect_resources;
        Alcotest.test_case "tune picks best" `Quick test_tune_picks_feasible_best;
        Alcotest.test_case "dp grid holes" `Quick test_dp_grid_holes;
      ] );
    ( "core.workloads",
      [
        Alcotest.test_case "gemm shapes" `Quick test_workload_shapes;
        Alcotest.test_case "mha shapes" `Quick test_workload_mha;
        Alcotest.test_case "groups" `Quick test_workload_groups;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "render" `Quick test_report_render;
        Alcotest.test_case "geomean" `Quick test_report_geomean;
      ] );
    ( "core.pingpong",
      [ Alcotest.test_case "completes with role swap" `Quick test_pingpong_completes ] );
    qsuite "core.pingpong.props" [ prop_pingpong_deadlock_free ];
  ]
