(** Simulator cost model, parameterized on published H100 SXM5
    characteristics.

    The absolute numbers are a calibration, not a claim: the paper's
    experiments ran on real hardware, and DESIGN.md documents that we
    target the *shape* of its results (who wins, by what factor, where
    the crossovers fall). Per-unit throughputs below derive from the
    H100 datasheet (989 dense FP16 TFLOPS across 132 SMs at ~1.76 GHz
    boost => ~4264 FP16 FLOPs per SM-cycle, doubled for FP8). *)

open Tawa_tensor

(** Which CTA execution engine interprets the machine program.
    [Reference] is the original tree-walking interpreter ({!Sim.step}),
    kept as the semantic oracle; [Decoded] is the pre-decoded,
    closure-compiled engine ({!Decode}/{!Engine}) that must agree with
    it bit-for-bit on cycles, stats, and functional outputs. *)
type engine = Reference | Decoded

let engine_to_string = function Reference -> "reference" | Decoded -> "decoded"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reference" | "ref" | "tree" | "interp" -> Some Reference
  | "decoded" | "dec" | "closure" -> Some Decoded
  | _ -> None

(** Execution mode of a simulation.

    [Functional] carries real tile payloads through every register plane
    and shared-memory slot: tile ops compute on tensors, stores write
    back to global buffers, and the run's outputs can be compared
    against {!Tawa_tensor.Reference}. [Timing] propagates only the
    values that can influence the cost model — scalars that feed
    addresses, predicates, barrier indices, or per-instruction costs —
    and replaces tile payloads with their shapes. Cycle counts, stall
    buckets, and per-WG profiles are identical between the two modes by
    construction (tile-op costs depend on shapes and dtypes, never on
    payload values); only functional outputs differ. Callers that only
    want cycles (autotune, capacity planning, bench sweeps) should run
    [Timing]. *)
type mode = Functional | Timing

let mode_to_string = function Functional -> "functional" | Timing -> "timing"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "functional" | "func" -> Some Functional
  | "timing" | "time" -> Some Timing
  | _ -> None

(* ----------------------- process-wide defaults -------------------- *)

(* Both start unset; {!Settings.of_env} sets them from [TAWA_ENGINE]
   and [TAWA_MODE]. *)

let engine_default : engine option Atomic.t = Atomic.make None

let set_default_engine e = Atomic.set engine_default e

(** Process-wide default engine for configs with [engine = None]. *)
let default_engine () = Atomic.get engine_default

let mode_default : mode option Atomic.t = Atomic.make None

let set_default_mode m = Atomic.set mode_default m

(** Process-wide default execution mode for commands run without an
    explicit mode. *)
let default_mode () = Atomic.get mode_default

type t = {
  clock_ghz : float;
  num_sms : int;
  (* tensor core *)
  tc_flops_per_cycle_f16 : float; (* per SM *)
  tc_flops_per_cycle_f8 : float;
  tc_efficiency : float; (* sustained fraction of peak for big tiles *)
  wgmma_issue_cycles : float; (* WG-side cost of issuing one wgmma *)
  (* CUDA cores, per warp group *)
  cuda_elems_per_cycle : float;    (* simple elementwise f32 ops *)
  sfu_elems_per_cycle : float;     (* exp/log/sqrt via SFU *)
  reduce_elems_per_cycle : float;  (* cross-lane reductions *)
  trans_elems_per_cycle : float;   (* register-tile transpose via SMEM *)
  scalar_cycles : float;           (* ALU/branch/mov issue cost *)
  (* memory *)
  tma_latency : float;             (* GMEM->SMEM latency, cycles *)
  tma_bytes_per_cycle : float;     (* effective per-SM bandwidth (HBM+L2 mix) *)
  tma_issue_cycles : float;        (* WG-side cost of one TMA issue *)
  cp_async_bytes_per_cycle : float;(* same engine, slightly lower efficiency *)
  cp_chunk_bytes : int;            (* bytes covered by one cp.async instr *)
  cp_issue_cycles_per_chunk : float; (* WG-side address-gen + issue cost *)
  smem_bytes_per_cycle : float;    (* lds/sts per WG *)
  stg_bytes_per_cycle : float;     (* register->GMEM store-out *)
  stg_latency : float;
  ldg_bytes_per_cycle : float;     (* non-TMA gather (ablation baseline) *)
  (* synchronization *)
  mbar_cycles : float;             (* arrive / satisfied-wait cost *)
  fence_cycles : float;            (* CTA-wide bar.sync *)
  workq_pop_cycles : float;        (* global atomic + broadcast *)
  (* launch *)
  launch_overhead_cycles : float;  (* per kernel launch (grid setup) *)
  cta_launch_cycles : float;       (* per CTA-wave scheduling cost *)
  wave_jitter : float;
      (* multiplicative cost of grid-scheduled (non-persistent)
         execution: CTA dispatch stagger, ragged wave finishes, and
         cold-cache starts — the overheads persistent kernels avoid
         (§IV-B) *)
  wgmma_depth_penalty : float;
      (* extra issue cycles per already-pending commit group: live MMA
         fragments increase register pressure (§V-E, the P=3 droop) *)
  mode : mode;                     (* carry real tile payloads? *)
  collect_trace : bool;            (* record per-unit busy intervals *)
  engine : engine option;
      (* CTA execution engine; [None] defers to {!default_engine},
         then to the [Decoded] default (see {!Engine.resolve}) *)
}

let h100 =
  {
    clock_ghz = 1.755;
    num_sms = 132;
    tc_flops_per_cycle_f16 = 4264.0;
    tc_flops_per_cycle_f8 = 8528.0;
    tc_efficiency = 0.82;
    wgmma_issue_cycles = 8.0;
    cuda_elems_per_cycle = 128.0;
    sfu_elems_per_cycle = 32.0;
    reduce_elems_per_cycle = 64.0;
    trans_elems_per_cycle = 32.0;
    scalar_cycles = 2.0;
    tma_latency = 650.0;
    tma_bytes_per_cycle = 128.0;
    tma_issue_cycles = 4.0;
    cp_async_bytes_per_cycle = 112.0;
    cp_chunk_bytes = 2048;
    cp_issue_cycles_per_chunk = 2.0;
    smem_bytes_per_cycle = 256.0;
    stg_bytes_per_cycle = 64.0;
    stg_latency = 350.0;
    ldg_bytes_per_cycle = 12.0;
    mbar_cycles = 12.0;
    fence_cycles = 40.0;
    workq_pop_cycles = 60.0;
    launch_overhead_cycles = 2200.0;
    cta_launch_cycles = 900.0;
    wave_jitter = 1.045;
    wgmma_depth_penalty = 20.0;
    mode = Timing;
    collect_trace = false;
    engine = None;
  }

(** Small, fully functional configuration for correctness tests. *)
let functional_test = { h100 with mode = Functional }

let is_functional cfg = cfg.mode = Functional

let tc_flops_per_cycle cfg (dtype : Dtype.t) =
  match dtype with
  | Dtype.F8E4M3 -> cfg.tc_flops_per_cycle_f8
  | _ -> cfg.tc_flops_per_cycle_f16

let cycles_to_seconds cfg cycles = cycles /. (cfg.clock_ghz *. 1e9)

let tflops cfg ~flops ~cycles =
  if cycles <= 0.0 then 0.0 else flops /. cycles_to_seconds cfg cycles /. 1e12
