(** Engine selection and the event-driven scheduler for decoded CTAs.

    Two engines execute a CTA:

    - {b Reference} — {!Sim.step}, the tree-walking interpreter. It is
      the semantic oracle: simple, obviously faithful to the paper's
      cost model. It additionally records legacy interval events
      ([collect_trace]) into [cta.events].
    - {b Decoded} — {!Decode}, the closure-compiled engine, selected by
      default. Bit-identical outcomes (cycles, stats, functional
      tensors) are enforced by the differential suite in
      [test/test_engine.ml].

    Both engines feed the deep profiler: pass [?recorder] to
    {!run_prepared}/{!run_cta} and op spans plus channel events are
    recorded identically by either engine (the recorder is runtime
    state, so it never perturbs the decode cache).

    Selection precedence: a forced override (bench harness) beats
    [cfg.engine], which beats the process-wide default
    ({!Config.default_engine}, unset until {!Settings.of_env} applies
    [TAWA_ENGINE]), which beats the built-in default (Decoded).
    [collect_trace] no longer forces the reference engine: timeline
    lanes come from the profiler recorder, which both engines feed.

    Decoded programs are cached ({!Progcache}) keyed by program
    fingerprint x config digest, so repeated launches of the same
    program (bench sweeps, persistent grids, per-CTA fan-out) decode
    once. *)

open Tawa_ir
open Tawa_machine

let err fmt = Format.kasprintf (fun s -> raise (Sim.Sim_error s)) fmt

(* --------------------- decoded scheduler loop --------------------- *)

(* The reference loop rescans every WG per iteration: try_unblock on
   all blocked WGs, then a linear min-scan over Running WGs. Here
   blocked WGs are woken by the barrier notify hooks the moment the
   satisfying arrival lands (the unblock time depends only on the
   recorded completion time and the waiter's frozen clock, so eager
   wake-up is bit-identical), and the min-scan is a binary heap pop:
   O(log #WGs) per retired instruction instead of O(#WGs).

   A popped WG owns its scheduler slot for as long as its upcoming
   unit is [local] (timing mode: provably free of cross-WG
   interaction, see {!Decode.optimize_stream}): such units retire
   without re-entering the heap. [w.lens.(pc)] is the number of source
   instructions the unit retires — 1, except for collapsed cost
   blocks. The budget is still charged per source instruction, and the
   check stays ahead of execution, so "sim: step budget exhausted"
   fires at the same retired count as the reference. The [in_ready]
   guard covers self-releasing units (a Fence arriving last wakes its
   own WG): once re-enqueued, the WG must not also keep running.

   After a non-local unit the WG also keeps the slot when it is still
   the earliest runnable WG: it is [Running], not already re-enqueued,
   and sorts before the heap top by [(time, index)] (or the heap is
   empty). That is exactly the WG a push followed by [ready_pop_exn]
   would return — keys are unique and do not move while enqueued, so
   the pop order never depends on the heap's layout — hence the push
   and pop are skipped. The outer loop's budget check is repeated
   before the next unit, so exhaustion still fires at the same count. *)
let run_decoded ?(max_steps = 50_000_000) (ctx : Decode.ectx) : Sim.outcome =
  let wgs = ctx.Decode.wgs in
  Array.iter (fun w -> Decode.ready_push ctx w) wgs;
  let alive = ref (Array.length wgs) in
  let steps = ref 0 in
  let stats = ctx.Decode.stats in
  let recd = ctx.Decode.recorder in
  let ready = ctx.Decode.ready in
  while !alive > 0 do
    if !steps >= max_steps then err "sim: step budget exhausted";
    if ready.Decode.n > 0 then begin
      let w = Decode.ready_pop_exn ctx in
      let code = w.Decode.code
      and lens = w.Decode.lens
      and local = w.Decode.local in
      let lim = Bytes.length local in
      let slot = ref true in
      while !slot do
        let continue = ref true in
        while !continue do
          let pc = w.Decode.pc in
          let len = lens.(pc) in
          steps := !steps + len;
          if !steps > max_steps then err "sim: step budget exhausted";
          stats.Sim.steps <- stats.Sim.steps + len;
          w.Decode.instret <- w.Decode.instret + len;
          (match recd with
          | Some r ->
            (* Op spans per scheduler unit. Collapsed cost blocks span
               all their members, attributed to the block's first pc. A
               unit that left [in_ready] set is a self-releasing Fence:
               its span was already recorded by [release_fences]. *)
            let t0 = w.Decode.c.Decode.t in
            code.(pc) w;
            if (not w.Decode.in_ready) && w.Decode.c.Decode.t > t0 then
              Tawa_obs.Prof.record_op r ~wg:w.Decode.index ~pc ~t0
                ~t1:w.Decode.c.Decode.t
          | None -> code.(pc) w);
          match w.Decode.state with
          | Sim.Running
            when (not w.Decode.in_ready)
                 && w.Decode.pc < lim
                 && Bytes.get local w.Decode.pc <> '\000' ->
            ()
          | _ -> continue := false
        done;
        (* Only the executing WG can finish; blocked WGs re-enter the
           heap via the wake hooks (possibly already, if this very
           instruction released them). *)
        match w.Decode.state with
        | Sim.Running ->
          if
            (not w.Decode.in_ready)
            && (ready.Decode.n = 0 || Decode.wg_before w ready.Decode.heap.(0))
          then begin
            if !steps >= max_steps then err "sim: step budget exhausted"
          end
          else begin
            Decode.ready_push ctx w;
            slot := false
          end
        | Sim.Finished ->
          decr alive;
          slot := false
        | Sim.Blocked _ -> slot := false
      done
    end
    else
      let blocked =
        Array.to_list wgs
        |> List.filter (fun w -> w.Decode.state <> Sim.Finished)
        |> List.map (fun w ->
               Printf.sprintf "wg%d(%s)@pc%d: %s" w.Decode.index
                 (Op.role_to_string w.Decode.role)
                 w.Decode.pc
                 (match w.Decode.state with
                 | Sim.Blocked (Sim.On_mbar { bar; target }) ->
                   Printf.sprintf "mbar %d >= %d (have %d)" bar target
                     (Mbarrier.completions ctx.Decode.mbars.(bar))
                 | Sim.Blocked (Sim.On_ring { ring; target }) ->
                   Printf.sprintf "ring %d >= %d (have %d)" ring target
                     (Mbarrier.completions ctx.Decode.rings.(ring))
                 | Sim.Blocked Sim.On_fence -> "fence"
                 | Sim.Running | Sim.Finished -> "?"))
      in
      err "sim: deadlock: %s" (String.concat "; " blocked)
  done;
  let cycles =
    Array.fold_left (fun acc w -> Float.max acc w.Decode.c.Decode.t) 0.0 wgs
  in
  {
    Sim.cycles;
    stats = ctx.Decode.stats;
    instructions = Array.fold_left (fun a w -> a + w.Decode.instret) 0 wgs;
    profile = Decode.profile_of_ctx ~wall:cycles ctx;
  }

(* ------------------------ engine selection ------------------------ *)

(* Process-wide override used by the bench harness to pin a pass to one
   engine regardless of config/env. *)
let forced : Config.engine option Atomic.t = Atomic.make None
let set_forced e = Atomic.set forced e

(* [collect_trace] used to force the reference engine (interval traces
   were oracle-only). The profiler recorder lifted that limitation: op
   and channel timeline lanes are reconstructed from events both
   engines record, so trace collection no longer affects selection. *)
let resolve (cfg : Config.t) : Config.engine =
  match Atomic.get forced with
  | Some e -> e
  | None -> (
    match cfg.Config.engine with
    | Some e -> e
    | None -> (
      match Config.default_engine () with
      | Some e -> e
      | None -> Config.Decoded))

(* ------------------------- decode caching ------------------------- *)

let decode_cache : Decode.t Progcache.t = Progcache.create ~name:"engine.decode" ()
let clear_decode_cache () =
  Progcache.clear decode_cache;
  Progcache.clear_program_fingerprints ()
let decode_cache_stats () = Progcache.stats decode_cache

(* Cost-model fields change the compiled closures (costs are folded at
   decode time), so the whole config is part of the key — except the
   fields that don't affect decoding: trace collection and the engine
   choice itself. The execution mode is keyed separately (readably) so
   functional and timing decodes of the same program never alias; the
   timing-optimization flag joins it because flipping it mid-process
   (bench baseline passes) must not serve stale streams.

   Launches re-derive their config record per call ([Launch] sets the
   mode), so the digest of the last config is memoized by structural
   equality. [Config.t] is plain data (ints, floats, constant
   constructors), so [=] agrees with the marshalled bytes except on
   NaN fields (never equal: they re-digest) and on signed zeros, which
   no cost-model rate or latency carries. *)
let last_cfg_digest : (Config.t * string) option Atomic.t = Atomic.make None

let cfg_digest (cfg : Config.t) =
  match Atomic.get last_cfg_digest with
  | Some (c, d) when c = cfg -> d
  | _ ->
    let norm =
      { cfg with Config.collect_trace = false; engine = None; mode = Config.Timing }
    in
    let d = Digest.to_hex (Digest.string (Marshal.to_string norm [])) in
    Atomic.set last_cfg_digest (Some (cfg, d));
    d

let cache_key (cfg : Config.t) program =
  Progcache.program_fingerprint program
  ^ "|" ^ cfg_digest cfg
  ^ "|" ^ Config.mode_to_string cfg.Config.mode
  ^ if (not (Config.is_functional cfg)) && Decode.opts_on () then "+opt" else ""

(* ------------------------------ API ------------------------------- *)

type prepared =
  | Pref of Config.t * Isa.program
  | Pdec of Decode.t

(* Retired-instruction counter across all engines and domains, for the
   bench harness's instructions/sec figure. *)
let retired = Atomic.make 0
let instructions_retired () = Atomic.get retired
let reset_instructions () = Atomic.set retired 0

(** Resolve the engine for [cfg] and pre-translate [program] if the
    decoded engine is selected. One [prepare] per launch amortizes the
    cache-key digest over all CTAs of the grid. *)
let prepare ~(cfg : Config.t) (program : Isa.program) : prepared =
  match resolve cfg with
  | Config.Reference -> Pref (cfg, program)
  | Config.Decoded ->
    let key = cache_key cfg program in
    Pdec
      (Progcache.find_or_add decode_cache ~key (fun () ->
           Decode.decode ~cfg program))

(** Run one CTA of a prepared program. [pid] is the CTA's program id
    (non-persistent grids); persistent CTAs leave it at the default and
    pop work items instead. *)
let run_prepared ?max_steps ?recorder (p : prepared) ~(params : Sim.rt list)
    ~(num_programs : int array) ?(pid = [| 0; 0; 0 |])
    ~(pop_global : unit -> int) () : Sim.outcome =
  let outcome =
    match p with
    | Pref (cfg, program) ->
      let cta =
        Sim.create ?recorder ~cfg ~program ~params ~num_programs ~pop_global ()
      in
      cta.Sim.pid <- pid;
      Sim.run ?max_steps cta
    | Pdec d ->
      let ctx = Decode.make_ctx ?recorder d ~params ~num_programs ~pid ~pop_global in
      run_decoded ?max_steps ctx
  in
  ignore (Atomic.fetch_and_add retired outcome.Sim.instructions);
  outcome

(** Run one CTA on the decoded engine and scan its resource high-water
    marks afterwards ({!Decode.measure_hwm}): resident register-tile
    bytes per warp group and written SMEM bytes. The differential
    statcheck suite uses this as ground truth for the static occupancy
    model; SMEM is only meaningful under a functional-mode [cfg]. The
    engine choice is forced: the measurement needs the decoded
    context's planes. *)
let run_measured ?max_steps ~(cfg : Config.t) ~(program : Isa.program)
    ~(params : Sim.rt list) ~(num_programs : int array)
    ?(pid = [| 0; 0; 0 |]) ~(pop_global : unit -> int) () :
    Sim.outcome * Decode.hwm =
  let key = cache_key cfg program in
  let d =
    Progcache.find_or_add decode_cache ~key (fun () -> Decode.decode ~cfg program)
  in
  let ctx = Decode.make_ctx d ~params ~num_programs ~pid ~pop_global in
  let outcome = run_decoded ?max_steps ctx in
  ignore (Atomic.fetch_and_add retired outcome.Sim.instructions);
  (outcome, Decode.measure_hwm d ctx)

(** Prepare-and-run a single CTA (tests, one-shot launches). *)
let run_cta ?max_steps ?recorder ~(cfg : Config.t) ~(program : Isa.program)
    ~(params : Sim.rt list) ~(num_programs : int array)
    ?pid ~(pop_global : unit -> int) () : Sim.outcome =
  run_prepared ?max_steps ?recorder (prepare ~cfg program) ~params
    ~num_programs ?pid ~pop_global ()
