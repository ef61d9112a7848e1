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
   epilogue) on the same three executors. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_gpusim
module Flow = Tawa_core.Flow
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
  ]
