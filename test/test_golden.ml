(* Golden functional-output digests. Every other functional check
   compares two executors that share the tile kernels (graph vs serial,
   reference vs decoded engine) or tolerates rounding error against the
   CPU reference, so a change that alters tile arithmetic identically in
   every executor would pass them all. These digests pin the output
   payload bits themselves: each entry hashes the [Int64.bits_of_float]
   of every output element (plus names, dtypes and shapes), and the
   expected values were recorded before the tile kernels were rewritten
   as first-order loops. Any bit that moves in any executor fails here.

   Covered: the three gallery demos replayed as task graphs (and the
   bits of their [Gallery.check] error), the four shipped .tw kernels
   through the Tawa pipeline on both CTA engines and through the IR
   interpreter, and a causal attention kernel (iota/cmp/select
   epilogue) on the same three executors.

   [timing.golden] does the same for paper-scale timing estimates, and
   [statcheck.golden] for the static analysis of every compiled
   candidate (see the sections below). *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_gpusim
open Tawa_analysis
module Flow = Tawa_core.Flow
module Autotune = Tawa_core.Autotune
module Workloads = Tawa_core.Workloads
module Graph = Tawa_graph.Graph
module Gallery = Tawa_graph.Gallery

let digest_outputs (outs : (string * Tensor.t) list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, t) ->
      Buffer.add_string b name;
      Buffer.add_char b ':';
      Buffer.add_string b (Dtype.to_string (Tensor.dtype t));
      Array.iter
        (fun d -> Buffer.add_string b (Printf.sprintf "x%d" d))
        (Tensor.shape t);
      Buffer.add_char b ';';
      Array.iter
        (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v))
        t.Tensor.data)
    outs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------- gallery demos ------------------------- *)

let demo_record (build : unit -> Gallery.demo) =
  let demo = build () in
  let inst = Graph.instantiate demo.Gallery.d_graph in
  ignore (Graph.replay inst);
  ( digest_outputs demo.Gallery.d_outputs,
    Int64.bits_of_float (Gallery.check demo) )

let golden_demos =
  [
    ("attention", Gallery.attention_block,
     ("2a8ef87c288a4856287a5183217b1c88", 4567156013173269573L));
    ("splitk", Gallery.split_k, ("9bfac819ccae33fbdd17fd5131b31f41", 0L));
    ("moe", Gallery.moe, ("10c2cf0d25c99a4c2d558235fbc1595f", 0L));
  ]

(* ------------------------- kernel runs --------------------------- *)

let kernels_dir =
  let exe_dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat exe_dir "../examples/kernels";
      Filename.concat exe_dir "../../../examples/kernels" ]
  in
  match
    List.find_opt (fun d -> Sys.file_exists (Filename.concat d "gemm.tw")) candidates
  with
  | Some d -> d
  | None -> List.hd candidates

let load_tw name =
  match Elaborate.compile_file (Filename.concat kernels_dir name) with
  | [ k ] -> k
  | ks -> Alcotest.failf "%s: expected one kernel, got %d" name (List.length ks)

(* One input tensor or scalar parameter; tensors are rebuilt fresh for
   every executor so no run sees another's writes. *)
type arg = Buf of (unit -> Tensor.t) | Int of int

type case = {
  c_name : string;
  c_kernel : unit -> Kernel.t;
  c_coarse : bool;
  c_args : arg list;
  c_outputs : int list;  (* indices of the output buffers in [c_args] *)
  c_grid : int * int * int;
  c_digest : string;
      (* golden digest: both CTA engines and the interpreter must all
         produce it *)
}

let fresh_args c =
  List.map (function Buf f -> `T (f ()) | Int i -> `I i) c.c_args

let outputs_of c args =
  List.map
    (fun i ->
      match List.nth args i with
      | `T t -> (Printf.sprintf "arg%d" i, t)
      | `I _ -> Alcotest.failf "%s: output %d is a scalar" c.c_name i)
    c.c_outputs

let run_sim engine c =
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 2;
          num_consumer_wgs = 1; persistent = false; use_coarse = c.c_coarse }
      (c.c_kernel ())
  in
  let args = fresh_args c in
  let params =
    List.map (function `T t -> Sim.Rtensor t | `I i -> Sim.Rint i) args
  in
  ignore
    (Launch.run_grid_functional
       ~cfg:{ Config.functional_test with Config.engine = Some engine }
       compiled.Flow.program ~params ~grid:c.c_grid);
  digest_outputs (outputs_of c args)

let run_interp c =
  let args = fresh_args c in
  let rvs =
    List.map (function `T t -> Interp.RTensor t | `I i -> Interp.RInt i) args
  in
  ignore (Interp.run_grid ~grid:c.c_grid (c.c_kernel ()) rvs);
  digest_outputs (outputs_of c args)

let f16 seed shape () = Tensor.random ~dtype:Dtype.F16 ~seed shape
let f8 seed shape () = Tensor.random ~dtype:Dtype.F8E4M3 ~seed shape
let zeros dtype shape () = Tensor.create ~dtype shape

let cases =
  [
    { c_name = "gemm.tw"; c_kernel = (fun () -> load_tw "gemm.tw"); c_coarse = false;
      c_args =
        [ Buf (f16 1 [| 32; 24 |]); Buf (f16 2 [| 24; 32 |]);
          Buf (zeros Dtype.F16 [| 32; 32 |]); Int 32; Int 32; Int 24 ];
      c_outputs = [ 2 ]; c_grid = (2, 2, 1);
      c_digest = "0202309eb673d3d11660149ef679597b" };
    { c_name = "gemm_fp8.tw"; c_kernel = (fun () -> load_tw "gemm_fp8.tw");
      c_coarse = false;
      c_args =
        [ Buf (f8 1 [| 32; 24 |]); Buf (f8 2 [| 24; 32 |]);
          Buf (zeros Dtype.F16 [| 32; 32 |]); Int 32; Int 32; Int 24 ];
      c_outputs = [ 2 ]; c_grid = (2, 2, 1);
      c_digest = "f76d26e15cc0a7cb802bbccd33dde0e3" };
    { c_name = "attention.tw"; c_kernel = (fun () -> load_tw "attention.tw");
      c_coarse = true;
      c_args =
        [ Buf (f16 11 [| 64; 8 |]); Buf (f16 12 [| 64; 8 |]); Buf (f16 13 [| 64; 8 |]);
          Buf (zeros Dtype.F16 [| 64; 8 |]); Int 64 ];
      c_outputs = [ 3 ]; c_grid = (4, 1, 1);
      c_digest = "9b1577f41969e330e5e94dc250bbf848" };
    { c_name = "gemm_bias_relu.tw"; c_kernel = (fun () -> load_tw "gemm_bias_relu.tw");
      c_coarse = false;
      c_args =
        [ Buf (f16 7 [| 16; 16 |]); Buf (f16 8 [| 16; 16 |]);
          Buf (fun () -> Tensor.random ~seed:9 [| 1; 16 |]);
          Buf (zeros Dtype.F16 [| 16; 16 |]); Int 16; Int 16; Int 16 ];
      c_outputs = [ 3 ]; c_grid = (1, 1, 1);
      c_digest = "46d1570d09b78745d5a71e992ffd4c9d" };
    { c_name = "attention_causal";
      c_kernel =
        (fun () -> Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:16 ~causal:true ());
      c_coarse = true;
      c_args =
        [ Buf (f16 21 [| 48; 16 |]); Buf (f16 22 [| 48; 16 |]); Buf (f16 23 [| 48; 16 |]);
          Buf (zeros Dtype.F16 [| 48; 16 |]); Int 48 ];
      c_outputs = [ 3 ]; c_grid = (3, 1, 1);
      c_digest = "f7602766e995fddfcc7f492a7a94f207" };
  ]

(* ------------------------- timing points ------------------------- *)

(* Paper-scale timing outputs. The engine differentials compare the
   two CTA engines with each other on small programs and 2x2 grids;
   nothing else pins what [Launch.estimate] reports for a Fig. 8 or
   Fig. 10 point across commits. Each entry hashes the bits of the
   estimate's cycles, TFLOPS, tensor-core utilization, stats and the
   representative CTA's profile (per-WG clocks, buckets and per-op
   cells, channel profiles). The expected values were recorded before
   the decoded engine's dispatch was reworked; the K=256 GEMM points
   also run on the reference engine, which must reproduce the same
   digest. *)

let digest_timing (t : Launch.timing) =
  let b = Buffer.create 8192 in
  let f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let i x = Buffer.add_int64_le b (Int64.of_int x) in
  let s = t.Launch.stats in
  List.iter f [ t.Launch.cycles; t.Launch.tflops; t.Launch.tc_utilization;
                s.Sim.tc_busy; s.Sim.tma_busy; s.Sim.tma_bytes ];
  List.iter i [ s.Sim.wgmma_count; s.Sim.tma_count; s.Sim.steps ];
  (match t.Launch.profile with
  | None -> Buffer.add_char b 'N'
  | Some p ->
    f p.Sim.wall;
    Array.iter
      (fun (w : Sim.wg_prof) ->
        i w.Sim.p_index;
        Buffer.add_string b w.Sim.p_role;
        f w.Sim.p_time;
        f w.Sim.p_busy;
        i w.Sim.p_instret;
        Array.iter f w.Sim.p_buckets;
        Array.iter f w.Sim.p_cells)
      p.Sim.wg_profs;
    Array.iter
      (fun (c : Sim.chan_prof) ->
        Buffer.add_string b c.Sim.c_kind;
        List.iter i [ c.Sim.c_id; c.Sim.c_arrivals; c.Sim.c_completions;
                      c.Sim.c_max_pending; c.Sim.c_max_inflight ];
        f c.Sim.c_wait)
      p.Sim.chan_profs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Candidates by role in [Autotune.space]'s fixed order. *)
let first_where what pred family =
  match List.find_opt pred (Autotune.space family) with
  | Some c -> c
  | None -> Alcotest.failf "no %s candidate" what

let pick_first = first_where "first" (fun _ -> true)
let pick_coop = first_where "cooperative" (fun c -> c.Autotune.coop > 1)
let pick_persistent = first_where "persistent" (fun c -> c.Autotune.persistent)
let pick_coarse = first_where "coarse" (fun c -> c.Autotune.coarse)

type tpoint = {
  t_name : string;
  t_family : Autotune.family;
  t_pick : Autotune.family -> Autotune.candidate;
  t_reference : bool;  (* also run on the reference engine *)
  t_digest : string;
}

let gemm_points dtype tag k ~reference digests =
  List.map2
    (fun (what, pick) digest ->
      { t_name = Printf.sprintf "fig8 %s K=%d %s" tag k what;
        t_family = Autotune.Gemm (Workloads.paper_gemm ~dtype k);
        t_pick = pick; t_reference = reference; t_digest = digest })
    [ ("first", pick_first); ("coop", pick_coop); ("persistent", pick_persistent) ]
    digests

let mha_points ~causal digests =
  List.map2
    (fun (what, pick) digest ->
      { t_name =
          Printf.sprintf "fig10 %s L=1024 %s" (if causal then "causal" else "full") what;
        t_family = Autotune.Attention (Workloads.paper_mha ~causal 1024);
        t_pick = pick; t_reference = false; t_digest = digest })
    [ ("first", pick_first); ("coarse", pick_coarse) ]
    digests

let timing_points =
  gemm_points Dtype.F16 "f16" 256 ~reference:true
    [ "fa3f6aecfca9381612bfdf81bf890564"; "c80843ed617f7e64d11ccf16c6b6438f";
      "21fe6b2df1e1b691ab6527b955b3d56d" ]
  @ gemm_points Dtype.F16 "f16" 1024 ~reference:false
      [ "96fd3469de1c0b174f23c06455a99918"; "893e4128402a28b64ee36386d4e8c5e1";
        "bfa426d7b4a43c8e4808b237a97b4ce8" ]
  @ gemm_points Dtype.F8E4M3 "f8" 256 ~reference:true
      [ "202aa0a9f5716ff1b0ed522cc9a23727"; "fdf948c61bd87516acc802a68ce1dbba";
        "4f5d2ea8288b50cb7ae790b46d605251" ]
  @ gemm_points Dtype.F8E4M3 "f8" 1024 ~reference:false
      [ "90ea33cd083c0b5bc8b9bdb5792f478f"; "af8a8007d587fbd22342907d36ecb3a2";
        "52b36c984b669d402a9c92a9a96d5dfa" ]
  @ mha_points ~causal:true
      [ "89a332c51682ce92c7f2ceb1cca57516"; "cae9e0d2f5f24aa1ce571e3644ad116e" ]
  @ mha_points ~causal:false
      [ "46e681e6c64cc3ad429cf973b868533e"; "01c08dcde5b2876326ff80ac8b660c1c" ]

(* ------------------------ statcheck digests ---------------------- *)

(* Statcheck's whole output on the kernels the compile benchmark feeds
   it: every [Autotune.space] candidate of the four families, and the
   four example [.tw] kernels under each lowering strategy. Each family
   hashes, per kernel, [Diagnostic.to_string] of every
   [Statcheck.check_kernel] finding and every [occupancy_report] field
   (per-stream bytes, max-live and regs/thread, SMEM items, verdict,
   CTAs/SM, headroom). Op ids come from a process-wide counter, so an
   SMEM item names its op by pre-order position instead; this corpus's
   findings carry no op or value. The expected values were recorded
   before liveness and reaching definitions moved to bitsets and the
   uninit-read lint gained its scope walk. *)

let digest_statcheck (ks : Kernel.t list) =
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (k : Kernel.t) ->
      let pos = Hashtbl.create 64 in
      ignore
        (Op.fold_region
           (fun i (o : Op.op) -> Hashtbl.replace pos o.Op.oid i; i + 1)
           0 k.Kernel.body);
      List.iter
        (fun d -> add "%s\n" (Diagnostic.to_string d))
        (Statcheck.check_kernel k);
      let r = Statcheck.occupancy_report k in
      add "%s smem=%d regs=%d ctas=%d %s %d %d\n" r.Statcheck.kernel_name
        r.Statcheck.smem_bytes r.Statcheck.total_regs r.Statcheck.ctas_per_sm
        r.Statcheck.limiting r.Statcheck.smem_headroom r.Statcheck.reg_headroom;
      List.iter
        (fun (pu : Statcheck.part_usage) ->
          add "part %d %s coop=%d tensor=%d live=%d regs=%d\n" pu.Statcheck.pu_index
            (Op.role_to_string pu.Statcheck.pu_role) pu.Statcheck.pu_coop
            pu.Statcheck.pu_tensor_bytes pu.Statcheck.pu_max_live_bytes
            pu.Statcheck.pu_regs_per_thread)
        r.Statcheck.parts;
      List.iter
        (fun (it : Footprint.smem_item) ->
          add "smem %s @%d %d x%d\n" it.Footprint.kind
            (Hashtbl.find pos it.Footprint.op_id)
            it.Footprint.item_bytes it.Footprint.copies)
        r.Statcheck.smem_items;
      match r.Statcheck.verdict with
      | Tawa_machine.Resources.Infeasible why -> add "infeasible %s\n" why
      | Tawa_machine.Resources.Feasible u ->
        add "feasible smem=%d consumer=%d producer=%d total=%d wgs=%d\n"
          u.Tawa_machine.Resources.smem_bytes
          u.Tawa_machine.Resources.regs_per_thread_consumer
          u.Tawa_machine.Resources.regs_per_thread_producer
          u.Tawa_machine.Resources.total_regs
          u.Tawa_machine.Resources.num_warp_groups)
    ks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let space_kernels family =
  List.map
    (fun c ->
      (Flow.compile ~options:(Autotune.options_of c) (Autotune.kernel_of family c))
        .Flow.transformed)
    (Autotune.space family)

(* The four example kernels compiled under every strategy, named by
   file and options key. *)
let example_kernels () =
  List.concat_map
    (fun f ->
      List.map
        (fun strategy ->
          let options = { Flow.default_options with strategy } in
          ( Printf.sprintf "%s %s" f (Flow.options_key options),
            (Flow.compile ~options (load_tw f)).Flow.transformed ))
        [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ])
    [ "attention.tw"; "gemm.tw"; "gemm_bias_relu.tw"; "gemm_fp8.tw" ]

let statcheck_points =
  [
    ("gemm f16 K=4096 space",
     (fun () -> space_kernels (Autotune.Gemm (Workloads.paper_gemm 4096))),
     "446a5d4814abf05cfc8300910d2d4639");
    ("gemm f8 K=4096 space",
     (fun () ->
       space_kernels (Autotune.Gemm (Workloads.paper_gemm ~dtype:Dtype.F8E4M3 4096))),
     "277f0b7900667a0909a5e0820b0777bc");
    ("mha full L=4096 space",
     (fun () ->
       space_kernels (Autotune.Attention (Workloads.paper_mha ~causal:false 4096))),
     "b091233ed14151e10d967092681dc93b");
    ("mha causal L=4096 space",
     (fun () -> space_kernels (Autotune.Attention (Workloads.paper_mha ~causal:true 4096))),
     "1772f47cb2c44a368b59f51bb6d514da");
    ("example .tw kernels x 4 strategies", (fun () -> List.map snd (example_kernels ())),
     "73680e8615504f1ac5f2ff98bd8afd92");
  ]

(* ----------------------------- tests ----------------------------- *)

let test_demo (name, build, (want_digest, want_err)) () =
  let digest, err = demo_record build in
  Alcotest.(check string) (name ^ " output digest") want_digest digest;
  Alcotest.(check int64) (name ^ " Gallery.check error bits") want_err err

let test_kernel c () =
  let want = c.c_digest in
  Alcotest.(check string) (c.c_name ^ " decoded engine") want
    (run_sim Config.Decoded c);
  Alcotest.(check string) (c.c_name ^ " reference engine") want
    (run_sim Config.Reference c);
  Alcotest.(check string) (c.c_name ^ " interpreter") want (run_interp c)

let test_timing p () =
  let c = p.t_pick p.t_family in
  let estimate engine =
    digest_timing
      (Autotune.estimate ~cfg:{ Config.h100 with Config.engine = Some engine }
         p.t_family c)
  in
  Alcotest.(check string) (p.t_name ^ " decoded engine") p.t_digest
    (estimate Config.Decoded);
  if p.t_reference then
    Alcotest.(check string) (p.t_name ^ " reference engine") p.t_digest
      (estimate Config.Reference)

let test_statcheck (name, kernels, want) () =
  Alcotest.(check string) name want (digest_statcheck (kernels ()))

let suites =
  [
    ( "graph.golden",
      List.map
        (fun ((name, _, _) as d) ->
          Alcotest.test_case (name ^ " demo replay") `Quick (test_demo d))
        golden_demos
      @ List.map
          (fun c -> Alcotest.test_case (c.c_name ^ " executors") `Quick (test_kernel c))
          cases );
      ( "timing.golden",
      List.map
        (fun p -> Alcotest.test_case p.t_name `Quick (test_timing p))
        timing_points );
    ( "statcheck.golden",
      List.map
        (fun ((name, _, _) as p) -> Alcotest.test_case name `Quick (test_statcheck p))
        statcheck_points );
  ]
