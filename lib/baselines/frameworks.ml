(** Models of the frameworks the paper compares against (§V-A).

    Every framework compiles kernels through this repository's own
    pipeline and runs on the same simulator; what differs is the
    schedule each framework is known to generate and a small set of
    documented cost quirks (DESIGN.md, "Baselines share the
    simulator"). FP8 attention on TileLang and ThunderKittens returns
    [None], matching the paper's "failed to execute our FP8 attention
    configurations". *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_gpusim

type t =
  | Tawa          (** this paper: automatic WS, autotuned D/P *)
  | Cublas        (** closed-source expert library (GEMM only) *)
  | Triton        (** baseline Triton: Ampere-style cp.async pipelining *)
  | Tilelang      (** TVM-based DSL, tuned for large K, weak FP8 layouts *)
  | Thunderkittens(** C++ tile library, FP16-tuned *)
  | Fa3           (** CUTLASS FlashAttention-3 (attention only) *)

let name = function
  | Tawa -> "Tawa"
  | Cublas -> "cuBLAS"
  | Triton -> "Triton"
  | Tilelang -> "TileLang"
  | Thunderkittens -> "ThunderKittens"
  | Fa3 -> "FA3"

let all_gemm = [ Cublas; Triton; Tilelang; Thunderkittens; Tawa ]
let all_mha = [ Fa3; Triton; Tilelang; Thunderkittens; Tawa ]

let tiles_128x128 = { Kernels.block_m = 128; block_n = 128; block_k = 64 }
let tiles_128x256 = { Kernels.block_m = 128; block_n = 256; block_k = 64 }

(* ------------------------------------------------------------------ *)
(* Per-framework cost quirks (documented substitutions)                *)
(* ------------------------------------------------------------------ *)

(* cuBLAS ships pre-built SASS with hand-scheduled epilogues: slightly
   better sustained tensor-core efficiency and cheaper launches than a
   JIT DSL, but a fixed kernel choice per precision. *)
let cublas_cfg (cfg : Config.t) =
  { cfg with
    Config.tc_efficiency = cfg.Config.tc_efficiency *. 0.99;
    launch_overhead_cycles = cfg.Config.launch_overhead_cycles *. 0.7 }

(* TileLang: TVM runtime launch path is heavier; FP8 WGMMA operand
   layouts are bank-conflicted (§V-B: "layout-management challenges for
   FP8 WGMMA, yielding an inferior implementation"). *)
let tilelang_cfg ~(dtype : Dtype.t) (cfg : Config.t) =
  let cfg =
    { cfg with
      Config.launch_overhead_cycles = cfg.Config.launch_overhead_cycles *. 2.5;
      cta_launch_cycles = cfg.Config.cta_launch_cycles *. 4.0 }
  in
  if Dtype.equal dtype Dtype.F8E4M3 then
    { cfg with Config.tc_efficiency = cfg.Config.tc_efficiency *. 0.40 }
  else
    (* hand-tuned inner loops sustain slightly more of peak than
       compiler-emitted code once the main loop is long (the paper's
       "extensively tuned for large K") *)
    { cfg with Config.tc_efficiency = cfg.Config.tc_efficiency *. 1.06 }

(* ThunderKittens: FP16-tuned; its FP8 paths are less carefully laid
   out (§V-B: "appears less carefully tuned for FP8"). *)
let thunderkittens_cfg ~(dtype : Dtype.t) (cfg : Config.t) =
  let cfg =
    { cfg with
      Config.launch_overhead_cycles = cfg.Config.launch_overhead_cycles *. 2.0;
      cta_launch_cycles = cfg.Config.cta_launch_cycles *. 1.8 }
  in
  if Dtype.equal dtype Dtype.F8E4M3 then
    { cfg with Config.tc_efficiency = cfg.Config.tc_efficiency *. 0.82 }
  else { cfg with Config.tc_efficiency = cfg.Config.tc_efficiency *. 1.02 }

(* FlashAttention-3: hand-written CUTLASS with the tightest
   softmax/GEMM interleave (exp2-based softmax, register-level
   ping-pong): better effective SFU throughput than compiler-emitted
   CUDA-core code. *)
let fa3_cfg (cfg : Config.t) =
  { cfg with
    Config.sfu_elems_per_cycle = cfg.Config.sfu_elems_per_cycle *. 1.7;
    reduce_elems_per_cycle = cfg.Config.reduce_elems_per_cycle *. 1.4;
    tc_efficiency = cfg.Config.tc_efficiency *. 1.005 }

(* ------------------------------------------------------------------ *)
(* GEMM                                                                *)
(* ------------------------------------------------------------------ *)

let gemm_fixed ~cfg ~(shape : Workloads.gemm_shape) ~tiles ~coop ~d ~p ~persistent () =
  let kernel = Kernels.gemm ~tiles ~dtype:shape.Workloads.dtype () in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop;
          persistent; use_coarse = false }
      kernel
  in
  let grid, params = Workloads.gemm_launch shape ~tiles in
  Launch.estimate ~cfg compiled.Flow.program ~params ~grid
    ~flops:(Workloads.gemm_flops shape)

(** GEMM timing of [fw] on [shape]; [None] only for frameworks that do
    not ship a GEMM (FA3). *)
let gemm ?(cfg = Config.h100) (fw : t) (shape : Workloads.gemm_shape) :
    Launch.timing option =
  match fw with
  | Tawa ->
    let m = Autotune.tune_gemm ~cfg shape in
    let c = m.Autotune.candidate in
    Some
      (gemm_fixed ~cfg ~shape ~tiles:c.Autotune.tiles ~coop:c.Autotune.coop
         ~d:c.Autotune.aref_depth ~p:c.Autotune.mma_depth
         ~persistent:c.Autotune.persistent ())
  | Cublas ->
    (* One expert kernel per precision: big cooperative tiles, deep
       ring, persistent. *)
    Some
      (gemm_fixed ~cfg:(cublas_cfg cfg) ~shape ~tiles:tiles_128x256 ~coop:2 ~d:3 ~p:2
         ~persistent:true ())
  | Triton ->
    (* Ampere-style software pipelining on the compute warps. *)
    let kernel = Kernels.gemm ~tiles:tiles_128x128 ~dtype:shape.Workloads.dtype () in
    let compiled =
      Flow.compile
        ~options:
          { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }
        kernel
    in
    let grid, params = Workloads.gemm_launch shape ~tiles:tiles_128x128 in
    Some
      (Launch.estimate ~cfg compiled.Flow.program ~params ~grid
         ~flops:(Workloads.gemm_flops shape))
  | Tilelang ->
    (* Hand-tuned for large K: deep pipeline + big cooperative tiles,
       which pays off only once the main loop is long enough. *)
    Some
      (gemm_fixed
         ~cfg:(tilelang_cfg ~dtype:shape.Workloads.dtype cfg)
         ~shape ~tiles:tiles_128x256 ~coop:2 ~d:4 ~p:2 ~persistent:false ())
  | Thunderkittens ->
    Some
      (gemm_fixed
         ~cfg:(thunderkittens_cfg ~dtype:shape.Workloads.dtype cfg)
         ~shape ~tiles:tiles_128x256 ~coop:2 ~d:2 ~p:1 ~persistent:false ())
  | Fa3 -> None

(* ------------------------------------------------------------------ *)
(* Multi-head attention                                                *)
(* ------------------------------------------------------------------ *)

let mha_block_m = 128
let mha_block_n = 128

let mha_ws ~cfg ~(shape : Workloads.mha_shape) ~d ~coarse () =
  let kernel =
    Kernels.attention ~block_m:mha_block_m ~block_n:mha_block_n
      ~head_dim:shape.Workloads.head_dim ~causal:shape.Workloads.causal
      ~dtype:shape.Workloads.mha_dtype ()
  in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = d; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = coarse }
      kernel
  in
  let grid, params = Workloads.mha_launch shape ~block_m:mha_block_m in
  (* A causal kernel's work varies per query block; simulate the median
     block (half the KV range). *)
  let rep_pid = [| (if shape.Workloads.causal then max 0 ((shape.Workloads.len / mha_block_m / 2) - 1) else 0); 0; 0 |] in
  Launch.estimate ~rep_pid ~cfg compiled.Flow.program ~params ~grid
    ~flops:(Workloads.mha_flops shape)

(** MHA timing of [fw] on [shape]; [None] when the framework cannot run
    the configuration (FP8 on TileLang/ThunderKittens; cuBLAS has no
    attention). *)
let mha ?(cfg = Config.h100) (fw : t) (shape : Workloads.mha_shape) :
    Launch.timing option =
  let fp8 = Dtype.equal shape.Workloads.mha_dtype Dtype.F8E4M3 in
  match fw with
  | Tawa -> Some (mha_ws ~cfg ~shape ~d:2 ~coarse:true ())
  | Fa3 -> Some (mha_ws ~cfg:(fa3_cfg cfg) ~shape ~d:3 ~coarse:true ())
  | Triton ->
    (* FA2-style: no warp specialization, cp.async prefetch. *)
    let kernel =
      Kernels.attention ~block_m:mha_block_m ~block_n:mha_block_n
        ~head_dim:shape.Workloads.head_dim ~causal:shape.Workloads.causal
        ~dtype:shape.Workloads.mha_dtype ()
    in
    let compiled =
      Flow.compile
        ~options:
          { Flow.default_options with strategy = Flow.Sw_pipelined 2; aref_depth = 2 }
        kernel
    in
    let grid, params = Workloads.mha_launch shape ~block_m:mha_block_m in
    let rep_pid = [| (if shape.Workloads.causal then max 0 ((shape.Workloads.len / mha_block_m / 2) - 1) else 0); 0; 0 |] in
    Some
      (Launch.estimate ~rep_pid ~cfg compiled.Flow.program ~params ~grid
         ~flops:(Workloads.mha_flops shape))
  | Tilelang ->
    if fp8 then None
    else
      (* Warp-specialized but without the coarse softmax/GEMM overlap. *)
      Some (mha_ws ~cfg:(tilelang_cfg ~dtype:shape.Workloads.mha_dtype cfg) ~shape ~d:3 ~coarse:false ())
  | Thunderkittens ->
    if fp8 then None
    else
      Some
        (mha_ws
           ~cfg:(thunderkittens_cfg ~dtype:shape.Workloads.mha_dtype cfg)
           ~shape ~d:2 ~coarse:false ())
  | Cublas -> None
