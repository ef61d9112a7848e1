(* Autotune: pruning soundness (candidates the static occupancy model
   rejects on register pressure really do exceed the limit when the
   decode engine measures them), search determinism, the store codec
   and the warm-restart path (second search serves from the tunestore
   with zero measurements), and the unified Flow.compile strategy key
   (deprecated wrappers share cache entries with explicit options). *)

open Tawa_tensor
open Tawa_frontend
open Tawa_machine
open Tawa_gpusim
open Tawa_core

let small_gemm = { Workloads.m = 1024; n = 1024; k = 512; dtype = Dtype.F16 }

let small_mha =
  { Workloads.batch = 1; heads = 1; len = 1024; head_dim = 128; causal = false;
    mha_dtype = Dtype.F16 }

let counter name =
  match List.assoc_opt name (Tawa_obs.Registry.snapshot ()) with
  | Some (Tawa_obs.Registry.Int n) -> n
  | _ -> 0

(* --------------------- pruning soundness -------------------------- *)

(* Under a tightened register limit, take warp-specialized candidates
   the static model rejects on regs/thread, run each one functionally
   through [Engine.run_measured], and confirm the *measured* register
   high-water mark also exceeds the limit: pruning never discards a
   configuration that actually fits. Restricted to non-persistent
   >=128x128 candidates so the launch is a plain grid and the
   accumulator alone decides the verdict (the static model is
   conservative on operand tiles; the accumulator is always live). *)
let test_pruning_sound () =
  let lim_rpt = 64 in
  let limits = { Resources.h100 with Resources.lim_regs_per_thread = lim_rpt } in
  let shape = { Workloads.m = 256; n = 256; k = 128; dtype = Dtype.F16 } in
  let fam = Autotune.Gemm shape in
  let pruned_on_regs =
    List.filter
      (fun (c : Autotune.candidate) ->
        c.Autotune.strategy = Flow.Warp_specialized
        && (not c.Autotune.persistent)
        && c.Autotune.coop = 1
        && c.Autotune.tiles.Kernels.block_m >= 128
        && c.Autotune.tiles.Kernels.block_n >= 128
        &&
        match Autotune.prune_reason ~limits fam c with
        | Some reason ->
          Astring.String.is_infix ~affix:"regs/thread" reason
        | None -> false)
      (Autotune.space fam)
  in
  Alcotest.(check bool)
    "tight limit prunes some reg-heavy candidates" true
    (List.length pruned_on_regs >= 2);
  let fcfg = { Config.h100 with Config.mode = Config.Functional } in
  List.iteri
    (fun i (c : Autotune.candidate) ->
      let compiled = Flow.compile ~options:(Autotune.options_of c) (Autotune.kernel_of fam c) in
      let a = Tensor.random ~dtype:Dtype.F16 ~seed:(41 + i) [| shape.Workloads.m; shape.Workloads.k |] in
      let b = Tensor.random ~dtype:Dtype.F16 ~seed:(51 + i) [| shape.Workloads.k; shape.Workloads.n |] in
      let out = Tensor.create ~dtype:Dtype.F16 [| shape.Workloads.m; shape.Workloads.n |] in
      let params =
        [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out;
          Sim.Rint shape.Workloads.m; Sim.Rint shape.Workloads.n;
          Sim.Rint shape.Workloads.k ]
      in
      let num_programs =
        [| max 1 (shape.Workloads.m / c.Autotune.tiles.Kernels.block_m);
           max 1 (shape.Workloads.n / c.Autotune.tiles.Kernels.block_n); 1 |]
      in
      let _, hwm =
        Engine.run_measured ~cfg:fcfg ~program:compiled.Flow.program ~params
          ~num_programs ~pop_global:Launch.no_queue ()
      in
      let measured_rpt =
        Array.fold_left
          (fun acc bytes -> max acc (((bytes / 4) + 127) / 128))
          0 hwm.Decode.hwm_reg_bytes
      in
      if measured_rpt <= lim_rpt then
        Alcotest.failf
          "%s: statically pruned at %d regs/thread but measured only %d"
          (Autotune.candidate_to_string c)
          lim_rpt measured_rpt)
    (* Two candidates with distinct tile shapes keep the functional
       runs inside the time budget while still exercising the bound. *)
    [ List.hd pruned_on_regs; List.nth pruned_on_regs (List.length pruned_on_regs - 1) ]

(* ------------------------- determinism ---------------------------- *)

let test_search_deterministic () =
  let fam = Autotune.Gemm small_gemm in
  let r1 = Autotune.search fam in
  let r2 = Autotune.search fam in
  Alcotest.(check bool)
    "same best candidate" true
    (r1.Autotune.best.Autotune.candidate = r2.Autotune.best.Autotune.candidate);
  Alcotest.(check (float 0.0))
    "same best tflops" r1.Autotune.best.Autotune.tflops
    r2.Autotune.best.Autotune.tflops;
  let s = r1.Autotune.stats in
  Alcotest.(check int) "whole space enumerated" 128 s.Autotune.total;
  Alcotest.(check bool) "static pruning fired" true (s.Autotune.pruned > 0);
  Alcotest.(check int)
    "measured = total - pruned"
    (s.Autotune.total - s.Autotune.pruned)
    s.Autotune.measured;
  Alcotest.(check bool) "no fallback on gemm" false s.Autotune.prune_fallback;
  Alcotest.(check bool)
    "prune reasons accounted" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r1.Autotune.prune_reasons
     = s.Autotune.pruned)

(* Attention at realistic block sizes is entirely statically
   infeasible (the model counts every register tile as live); the
   search must fall back to measuring everything instead of failing. *)
let test_attention_fallback () =
  let r = Autotune.search (Autotune.Attention small_mha) in
  let s = r.Autotune.stats in
  Alcotest.(check bool) "fallback recorded" true s.Autotune.prune_fallback;
  Alcotest.(check int) "nothing counted as pruned" 0 s.Autotune.pruned;
  Alcotest.(check int) "all candidates measured" s.Autotune.total s.Autotune.measured;
  Alcotest.(check bool) "a best was found" true (r.Autotune.best.Autotune.tflops > 0.0)

(* --------------------------- store -------------------------------- *)

let test_codec_roundtrip () =
  List.iter
    (fun strategy ->
      let m =
        { Autotune.candidate =
            { Autotune.tiles = { Kernels.block_m = 128; block_n = 256; block_k = 64 };
              aref_depth = 3; mma_depth = 2; coop = 2; persistent = true;
              coarse = false; strategy };
          tflops = 750.16077202171005;
          cycles = 1286152.9012950275 }
      in
      match Autotune.decode_measurement (Autotune.encode_measurement m) with
      | Some m' ->
        Alcotest.(check bool)
          (Flow.strategy_key strategy ^ " round-trips exactly")
          true (m = m')
      | None ->
        Alcotest.failf "codec failed on %s" (Autotune.encode_measurement m))
    [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ];
  Alcotest.(check (option unit))
    "garbage decodes to None" None
    (Option.map ignore (Autotune.decode_measurement "not|a|measurement"))

let test_shape_bucketing () =
  let key m = Autotune.store_key (Autotune.Gemm { small_gemm with Workloads.m }) in
  Alcotest.(check string) "nearby shapes share a bucket" (key 1024) (key 1000);
  Alcotest.(check bool) "distinct buckets split" true (key 1024 <> key 2048);
  Alcotest.(check bool)
    "families never collide" true
    (Autotune.store_key (Autotune.Gemm small_gemm)
     <> Autotune.store_key (Autotune.Attention small_mha))

let test_store_roundtrip () =
  let path = Filename.temp_file "tawa_tune" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fam = Autotune.Gemm small_gemm in
      let st1 = Tunestore.open_ ~name:"test_cold" ~path () in
      let cold = Autotune.search ~store:st1 fam in
      Alcotest.(check bool) "cold run measures" true
        (cold.Autotune.stats.Autotune.measured > 0);
      let s1 = Tunestore.stats st1 in
      Alcotest.(check int) "cold run misses once" 1 s1.Tunestore.misses;
      Alcotest.(check int) "cold run stores once" 1 s1.Tunestore.stores;
      (* A fresh handle re-reads the file: this is the warm restart. *)
      let st2 = Tunestore.open_ ~name:"test_warm" ~path () in
      Alcotest.(check int) "store persisted one entry" 1 (Tunestore.length st2);
      let measured_before = counter "autotune.measured" in
      let warm = Autotune.search ~store:st2 fam in
      Alcotest.(check bool) "warm run is store-served" true
        warm.Autotune.stats.Autotune.from_store;
      Alcotest.(check int) "warm run measures nothing" 0
        warm.Autotune.stats.Autotune.measured;
      Alcotest.(check int) "registry saw zero new measurements"
        measured_before (counter "autotune.measured");
      Alcotest.(check bool) "warm best matches cold best" true
        (warm.Autotune.best = cold.Autotune.best);
      (* Corrupt the stored payload: the search must degrade to a cold
         miss and overwrite, never crash. *)
      Tunestore.put st2 ~key:(Autotune.store_key fam) "corrupt payload";
      let st3 = Tunestore.open_ ~name:"test_corrupt" ~path () in
      let recovered = Autotune.search ~store:st3 fam in
      Alcotest.(check bool) "corrupt entry falls back to search" false
        recovered.Autotune.stats.Autotune.from_store;
      Alcotest.(check bool) "and re-persists the winner" true
        (recovered.Autotune.best = cold.Autotune.best))

(* -------------------- unified compile strategy -------------------- *)

let test_strategy_unification () =
  let keys =
    List.map
      (fun strategy -> Flow.options_key { Flow.default_options with strategy })
      [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ]
  in
  Alcotest.(check int)
    "strategies never alias in the cache key" 4
    (List.length (List.sort_uniq compare keys))

let suites =
  [ ( "autotune",
      [ Alcotest.test_case "pruning is sound vs measured hwm" `Slow test_pruning_sound;
        Alcotest.test_case "search is deterministic" `Quick test_search_deterministic;
        Alcotest.test_case "attention falls back when all pruned" `Quick
          test_attention_fallback;
        Alcotest.test_case "store codec round-trips" `Quick test_codec_roundtrip;
        Alcotest.test_case "shapes bucket to powers of two" `Quick test_shape_bucketing;
        Alcotest.test_case "store round-trip serves warm restarts" `Quick
          test_store_roundtrip;
        Alcotest.test_case "strategies never alias in the cache key" `Quick
          test_strategy_unification ] ) ]
