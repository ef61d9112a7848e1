(** Kernel launch modelling: full functional grids for verification,
    and wave-extrapolated timing for paper-scale shapes.

    Functional runs simulate every CTA (or, for persistent kernels, one
    resident CTA per simulated SM draining a shared work queue), so
    stores land in real buffers and outputs can be checked against the
    reference interpreter.

    Timing runs at paper scale (e.g. 4096 CTAs for an 8192x8192 GEMM)
    simulate one SM's share of the work and extrapolate: persistent
    kernels process [ceil(tiles / num_sms)] queue items in one resident
    CTA; non-persistent launches cost
    [launch_overhead + waves * (cta_cycles + cta_launch)] where a wave
    is [num_sms] CTAs. *)

open Tawa_machine

type timing = {
  cycles : float;
  seconds : float;
  tflops : float;
  tc_utilization : float; (* tensor-core busy fraction of total time *)
  stats : Sim.stats;
  profile : Sim.profile option;
      (* stall/channel attribution of the simulated representative CTA;
         [None] for aggregated launches (grouped, external baselines)
         where no single CTA is representative *)
}

let log_src = Logs.Src.create "tawa.launch" ~doc:"Launch modelling"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ---------------------- symmetry replication ---------------------- *)

(* Wave symmetry: CTAs of a class (same program, same parameter
   bindings, same grid) differing only in CTA id have bit-identical
   timing outcomes whenever {!Tawa_analysis.Replicate} proves the
   timing semantics cannot observe the id. Replication then simulates
   one representative per class and reuses its outcome for the rest —
   the accumulated sums add the very same float values in the same
   order, so results are unchanged for any class shape.

   Default on; {!set_replication_enabled} turns it off (the bench
   harness pins per-pass settings; the executables map
   [TAWA_REPLICATE=0] to it). *)
let replication = Atomic.make true
let set_replication_enabled b = Atomic.set replication b
let replication_enabled () = Atomic.get replication

(* One-time refusal warning: replication silently falling back to full
   simulation everywhere would hide a protocol or symmetry problem. *)
let warned_refusal = Atomic.make false

let warn_refused (p : Tawa_machine.Isa.program) reason =
  if not (Atomic.exchange warned_refusal true) then
    Log.warn (fun m ->
        m
          "symmetry replication refused for %s (%s); simulating every CTA of \
           its class (sound, slower). Further refusals are silent."
          p.Tawa_machine.Isa.name reason)

(* Wave extrapolation in {!estimate} predates replication but rests on
   the same symmetry argument; probe the predicate once per distinct
   kernel name and surface (once) when a wave is extrapolated from a
   representative whose timing the other CTAs need not share. *)
let probed_names : (string, unit) Hashtbl.t = Hashtbl.create 16
let probed_lock = Mutex.create ()
let warned_extrapolation = Atomic.make false

let probe_extrapolation (p : Tawa_machine.Isa.program) =
  let fresh =
    Mutex.lock probed_lock;
    let fresh = not (Hashtbl.mem probed_names p.Tawa_machine.Isa.name) in
    if fresh then Hashtbl.add probed_names p.Tawa_machine.Isa.name ();
    Mutex.unlock probed_lock;
    fresh
  in
  if fresh then
    match Tawa_analysis.Replicate.verdict p with
    | Tawa_analysis.Replicate.Replicable -> ()
    | Tawa_analysis.Replicate.Refused reason ->
      if not (Atomic.exchange warned_extrapolation true) then
        Log.warn (fun m ->
            m
              "wave timing of %s extrapolates from one representative CTA, \
               but its timing is CTA-id-dependent (%s); treat the estimate \
               as the representative's wave, not an exact bound. Further \
               cases are silent."
              p.Tawa_machine.Isa.name reason)

let queue_of_list tiles =
  let remaining = ref tiles in
  fun () ->
    match !remaining with
    | [] -> -1
    | t :: rest ->
      remaining := rest;
      t

let no_queue () = -1

(** The independent work units of one launch, as thunks: one per CTA
    for a non-persistent grid (fresh [Sim.create] per unit — private
    SMEM, mbarriers, register files — writing a disjoint output tile of
    the shared parameter buffers), or a single unit draining the whole
    work queue for a persistent program. The caller owns the fan-out:
    {!run_grid_functional} pool-maps one launch's units, while the
    task-graph scheduler concatenates the units of every kernel in a
    wave and runs them through one shared pool dispatch — the
    re-entrant handoff that lets independent kernels overlap instead of
    pool-draining one kernel at a time. Units are safe to run
    concurrently with each other but each thunk must run at most
    once. *)
let cta_units ~(prepared : Engine.prepared) ~(program : Isa.program)
    ~(params : Sim.rt list) ~(grid : int * int * int) :
    (unit -> Sim.outcome) array =
  let gx, gy, gz = grid in
  let num_programs = [| gx; gy; gz |] in
  let total = gx * gy * gz in
  if program.Isa.persistent then
    [|
      (fun () ->
        let pop = queue_of_list (List.init total Fun.id) in
        Engine.run_prepared prepared ~params ~num_programs ~pop_global:pop ());
    |]
  else
    Array.init total (fun i ->
        let x = i mod gx in
        let rest = i / gx in
        let pid = [| x; rest mod gy; rest / gy |] in
        fun () ->
          Engine.run_prepared prepared ~params ~num_programs ~pid
            ~pop_global:no_queue ())

(** Run every program instance of [grid] functionally; mutates the
    buffers bound to pointer params. Returns total simulated cycles of
    the slowest path (not meaningful as end-to-end time — use
    {!estimate} for that). *)
let run_grid_functional ~(cfg : Config.t) (program : Isa.program) ~(params : Sim.rt list)
    ~(grid : int * int * int) : float =
  let cfg = { cfg with Config.mode = Config.Functional } in
  (* Engine resolution and decoding happen once per launch; every CTA
     of the grid reuses the prepared program. *)
  let prepared = Engine.prepare ~cfg program in
  (* The reduction is a [max] over per-CTA cycles (associative,
     commutative), so the result is bit-identical for any domain
     count; [Sim_error] deadlocks in any CTA propagate out of the
     pool. Persistent programs expose a single unit, which the pool
     degrades to a plain sequential call. *)
  Tawa_pool.Pool.max_float
    (fun unit_ -> (unit_ ()).Sim.cycles)
    (cta_units ~prepared ~program ~params ~grid)

(** Timing estimate for a [grid] launch at scale. [flops] is the useful
    arithmetic of the whole launch (for TFLOPS). [rep_pid] selects the
    representative tile simulated for non-persistent launches. [mode]
    defaults to timing; passing [Functional] simulates the payload too
    (params must then bind real buffers) and yields identical cycles. *)
let estimate ?(rep_pid = [| 0; 0; 0 |]) ?(mode = Config.Timing) ~(cfg : Config.t)
    (program : Isa.program) ~(params : Sim.rt list) ~(grid : int * int * int)
    ~(flops : float) : timing =
  let cfg = { cfg with Config.mode = mode } in
  let gx, gy, gz = grid in
  let total = gx * gy * gz in
  let num_programs = [| gx; gy; gz |] in
  let prepared = Engine.prepare ~cfg program in
  let cycles, stats, tc_utilization, profile =
    if program.Isa.persistent then begin
      (* One resident CTA per SM; simulate one SM's share. *)
      let share = (total + cfg.Config.num_sms - 1) / cfg.Config.num_sms in
      let tiles = List.init share (fun i -> (i * cfg.Config.num_sms) mod total) in
      let o =
        Engine.run_prepared prepared ~params ~num_programs
          ~pop_global:(queue_of_list tiles) ()
      in
      let cycles = cfg.Config.launch_overhead_cycles +. o.Sim.cycles in
      (cycles, o.Sim.stats, o.Sim.stats.Sim.tc_busy /. cycles, Some o.Sim.profile)
    end
    else begin
      probe_extrapolation program;
      let o =
        Engine.run_prepared prepared ~params ~num_programs ~pid:rep_pid
          ~pop_global:no_queue ()
      in
      let waves = (total + cfg.Config.num_sms - 1) / cfg.Config.num_sms in
      let cycles =
        cfg.Config.launch_overhead_cycles
        +. Float.of_int waves
           *. ((o.Sim.cycles *. cfg.Config.wave_jitter) +. cfg.Config.cta_launch_cycles)
      in
      (* Per-SM utilization: the simulated CTA's tensor-core busy time
         over its wave slot (stats cover one CTA, cycles cover the whole
         launch). *)
      ( cycles,
        o.Sim.stats,
        o.Sim.stats.Sim.tc_busy /. (o.Sim.cycles +. cfg.Config.cta_launch_cycles),
        Some o.Sim.profile )
    end
  in
  let seconds = Config.cycles_to_seconds cfg cycles in
  { cycles; seconds; tflops = Config.tflops cfg ~flops ~cycles; tc_utilization; stats;
    profile }

(** Heterogeneous persistent launch (grouped GEMM, Fig. 9): work items
    carry their own parameter bindings; one resident CTA per SM pops
    items and re-reads per-item scalars. Modelled by simulating each
    item's inner program once per assignment and summing one SM's
    share serially — valid because grouped work items are independent
    and the queue serializes them on an SM. Programs must be compiled
    WITHOUT the per-kernel persistent wrapper: the grouped launcher
    itself provides the persistence (queue pop per tile).

    [mode] defaults to timing (the estimator's reason to exist); the
    benchmark harness passes [Functional] to measure the cost of full
    payload simulation under the identical unit fan-out. *)
let estimate_grouped ?(mode = Config.Timing) ~(cfg : Config.t)
    (items : (Isa.program * Sim.rt list * (int * int * int) * float) list) : timing =
  List.iter
    (fun ((p : Isa.program), _, _, _) ->
      if p.Isa.persistent then
        invalid_arg
          "Launch.estimate_grouped: pass non-persistent programs (the grouped launcher \
           is the persistence)")
    items;
  let cfg = { cfg with Config.mode = mode } in
  (* Expand items to per-tile work units (prepared program, params).
     Preparing per item (not per unit) decodes each distinct program
     once before the fan-out. *)
  let items_arr = Array.of_list items in
  let units =
    List.concat_map
      (fun (item, (program, params, (gx, gy, gz), _flops)) ->
        let prepared = Engine.prepare ~cfg program in
        List.concat_map
          (fun z ->
            List.concat_map
              (fun y -> List.map (fun x -> (item, prepared, params, [| x; y; z |], (gx, gy, gz))) (List.init gx Fun.id))
              (List.init gy Fun.id))
          (List.init gz Fun.id))
      (List.mapi (fun i it -> (i, it)) items)
  in
  let flops = List.fold_left (fun acc (_, _, _, f) -> acc +. f) 0.0 items in
  let n = List.length units in
  let share = (n + cfg.Config.num_sms - 1) / cfg.Config.num_sms in
  (* One SM's share: every num_sms-th unit. *)
  let mine = List.filteri (fun i _ -> i mod cfg.Config.num_sms = 0) units in
  let mine = List.filteri (fun i _ -> i < share) mine in
  let agg = ref 0.0 in
  let stats =
    { Sim.tc_busy = 0.0; tma_busy = 0.0; tma_bytes = 0.0; wgmma_count = 0; tma_count = 0;
      steps = 0 }
  in
  (* Each work unit of the SM's share is an independent simulation;
     run them on the domain pool, then accumulate sequentially in
     queue order so the float sums are bit-identical to the serial
     engine for any domain count. *)
  let run_unit (_, prepared, params, pid, (gx, gy, gz)) =
    Engine.run_prepared prepared ~params ~num_programs:[| gx; gy; gz |] ~pid
      ~pop_global:no_queue ()
  in
  let outcomes =
    (* Replication is a timing-mode lever only: in functional mode every
       CTA must actually run so its buffer writes happen. *)
    if Config.is_functional cfg || not (replication_enabled ()) then
      Tawa_pool.Pool.map_list run_unit mine
    else begin
      (* The units of one item form an equivalence class: same prepared
         program, same parameter bindings, same grid — only the CTA id
         differs. When {!Tawa_analysis.Replicate} proves the class
         id-independent, simulate only its first unit of this SM's
         share and reuse that outcome for the rest; the sequential
         accumulation below then adds the identical float values in
         the identical order, so the result is bit-for-bit the same as
         simulating every unit. Refused classes (id-dependent timing,
         arefcheck violation) fall back to full simulation with a
         one-time warning. *)
      let verdicts =
        Array.map
          (fun (program, _, _, _) -> Tawa_analysis.Replicate.verdict program)
          items_arr
      in
      Array.iteri
        (fun i v ->
          match v with
          | Tawa_analysis.Replicate.Refused reason ->
            let program, _, _, _ = items_arr.(i) in
            warn_refused program reason
          | Tawa_analysis.Replicate.Replicable -> ())
        verdicts;
      let mine_arr = Array.of_list mine in
      let n_mine = Array.length mine_arr in
      let rep_pos = Array.make (Array.length items_arr) (-1) in
      let sim_pos = Array.make n_mine (-1) in
      let order = ref [] and count = ref 0 in
      for i = 0 to n_mine - 1 do
        let item, _, _, _, _ = mine_arr.(i) in
        let keep () =
          sim_pos.(i) <- !count;
          order := mine_arr.(i) :: !order;
          incr count
        in
        match verdicts.(item) with
        | Tawa_analysis.Replicate.Replicable ->
          if rep_pos.(item) < 0 then begin
            rep_pos.(item) <- !count;
            keep ()
          end
        | Tawa_analysis.Replicate.Refused _ -> keep ()
      done;
      let sims =
        Array.of_list (Tawa_pool.Pool.map_list run_unit (List.rev !order))
      in
      Tawa_obs.Registry.incr ~by:!count "launch.replication.simulated";
      Tawa_obs.Registry.incr ~by:(n_mine - !count) "launch.replication.replicated";
      List.init n_mine (fun i ->
          let item, _, _, _, _ = mine_arr.(i) in
          sims.(if sim_pos.(i) >= 0 then sim_pos.(i) else rep_pos.(item)))
    end
  in
  List.iter
    (fun (o : Sim.outcome) ->
      agg := !agg +. o.Sim.cycles;
      stats.Sim.tc_busy <- stats.Sim.tc_busy +. o.Sim.stats.Sim.tc_busy;
      stats.Sim.tma_busy <- stats.Sim.tma_busy +. o.Sim.stats.Sim.tma_busy)
    outcomes;
  (* Persistent execution avoids per-item launches; only queue pops. *)
  let cycles =
    cfg.Config.launch_overhead_cycles
    +. !agg
    +. (Float.of_int (List.length mine) *. cfg.Config.workq_pop_cycles)
  in
  {
    cycles;
    seconds = Config.cycles_to_seconds cfg cycles;
    tflops = Config.tflops cfg ~flops ~cycles;
    tc_utilization = stats.Sim.tc_busy /. cycles;
    stats;
    profile = None;
  }
