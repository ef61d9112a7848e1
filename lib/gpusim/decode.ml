(** Decode-once execution engine: closure-compiled instruction streams
    over typed register planes.

    {!Sim.step} is a tree-walking interpreter: every retired
    instruction re-matches the [Isa.instr] variant, re-resolves operand
    kinds, boxes every scalar in an {!Sim.rt} variant, hashes SMEM
    slots, and recomputes tile costs from the config. This module
    translates each stream ONCE into an array of OCaml closures
    ([code = wg -> unit]; each WG carries its context in [w.ctx]) with
    everything static folded at decode time:

    - immediates become captured constants; operand accessors are
      pre-resolved per kind (no [value_of] dispatch at run time);
    - the register file is split into typed planes — [int array],
      [float array], [Bytes] bools, and a tensor/descriptor object
      plane — with a tag byte per register, so scalar traffic never
      allocates;
    - tile costs, byte counts, wgmma durations' static factors, and
      SMEM slot bases are pre-computed;
    - the [(alloc, slot)] Hashtbl becomes a dense array indexed by
      [alloc_base + slot] (with a Hashtbl fallback for out-of-range
      slots so hand-built programs keep reference semantics);
    - scalar [Alu]/[Cmp] units match their opcode inside the one
      closure through typed, inlined helpers ([int_op], [float_op],
      [int_cmp], [float_cmp]): no second closure per instruction and no
      polymorphic compare.

    Blocked warp groups register on the mbarrier/ring they wait on and
    are re-enqueued by {!Mbarrier.arrive} via the barrier's notify
    hook; the scheduler is a binary heap keyed [(time, index)] (see
    {!Engine}), which reproduces the reference scheduler's
    min-time/lowest-index selection exactly.

    Everything here must stay BIT-IDENTICAL to {!Sim} — same float
    expression shapes, same evaluation order, same error messages. The
    differential suite ([test/test_engine.ml]) enforces this across
    the example/frontend/fuzz corpus; when touching either engine,
    touch both. *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine

let err fmt = Format.kasprintf (fun s -> raise (Sim.Sim_error s)) fmt

(* [Float.max] with the ordered cases settled by one comparison: only
   equal operands (signed zeros) and NaN reach the library rule and its
   sign-bit calls, so the result is the same for every input. *)
let[@inline] fmax a b = if a > b then a else if b > a then b else Float.max a b

(* Stall buckets — same indices and charging points as the reference
   engine (see the constants atop sim.ml). *)
let b_compute = Tawa_obs.Stall.compute
let b_tma = Tawa_obs.Stall.tma
let b_tc = Tawa_obs.Stall.tensorcore
let b_mbar = Tawa_obs.Stall.mbar_wait
let b_ring = Tawa_obs.Stall.ring_wait
let b_fence = Tawa_obs.Stall.fence_wait

(* ----------------------- typed register planes -------------------- *)

(* Tag byte per register selecting the authoritative plane. Registers
   default to tag 0 / int 0, matching the reference file's [Rint 0]
   fill. *)
let t_int = '\000'
let t_float = '\001'
let t_bool = '\002'
let t_tensor = '\003'
let t_desc = '\004'
let t_none = '\005'

type objv = Onone | Otensor of Tensor.t | Odesc of Sim.desc

type planes = {
  mutable cap : int;
  mutable tags : Bytes.t;
  mutable ints : int array;
  mutable floats : float array;
  mutable bools : Bytes.t;
  mutable objs : objv array;
}

let make_planes n =
  let n = max 1 n in
  {
    cap = n;
    tags = Bytes.make n t_int;
    ints = Array.make n 0;
    floats = Array.make n 0.0;
    bools = Bytes.make n '\000';
    objs = Array.make n Onone;
  }

(* Grow all planes to cover register [r]; fresh registers read as
   int 0, like the reference file's growth fill. *)
let grow p r =
  let cap = max (2 * p.cap) (r + 1) in
  let tags = Bytes.make cap t_int in
  Bytes.blit p.tags 0 tags 0 p.cap;
  let ints = Array.make cap 0 in
  Array.blit p.ints 0 ints 0 p.cap;
  let floats = Array.make cap 0.0 in
  Array.blit p.floats 0 floats 0 p.cap;
  let bools = Bytes.make cap '\000' in
  Bytes.blit p.bools 0 bools 0 p.cap;
  let objs = Array.make cap Onone in
  Array.blit p.objs 0 objs 0 p.cap;
  p.cap <- cap;
  p.tags <- tags;
  p.ints <- ints;
  p.floats <- floats;
  p.bools <- bools;
  p.objs <- objs

let tag_of p r = if r < p.cap then Bytes.get p.tags r else t_int

let set_int p r v =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_int;
  p.ints.(r) <- v

let set_float p r v =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_float;
  p.floats.(r) <- v

let set_bool p r v =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_bool;
  Bytes.set p.bools r (if v then '\001' else '\000')

let set_tensor p r t =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_tensor;
  p.objs.(r) <- Otensor t

let set_desc p r d =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_desc;
  p.objs.(r) <- Odesc d

let set_none p r =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_none

(* Reads beyond capacity see the default register value (int 0), like
   [Sim.reg_read]. The coercions mirror [as_int]/[as_float]/[as_bool]
   exactly, error messages included. *)

let get_int p r =
  if r >= p.cap then 0
  else
    match Bytes.get p.tags r with
    | '\000' -> p.ints.(r)
    | '\001' -> int_of_float p.floats.(r)
    | '\002' -> if Bytes.get p.bools r <> '\000' then 1 else 0
    | _ -> err "sim: expected integer operand"

let get_float p r =
  if r >= p.cap then 0.0
  else
    match Bytes.get p.tags r with
    | '\001' -> p.floats.(r)
    | '\000' -> Float.of_int p.ints.(r)
    | '\002' -> if Bytes.get p.bools r <> '\000' then 1.0 else 0.0
    | _ -> err "sim: expected float operand"

let get_bool p r =
  if r >= p.cap then false
  else
    match Bytes.get p.tags r with
    | '\002' -> Bytes.get p.bools r <> '\000'
    | '\000' -> p.ints.(r) <> 0
    | '\001' -> p.floats.(r) <> 0.0
    | _ -> err "sim: expected predicate operand"

let get_tensor p r =
  if r < p.cap && Bytes.get p.tags r = t_tensor then
    match p.objs.(r) with Otensor t -> t | _ -> err "sim: expected tensor operand"
  else err "sim: expected tensor operand"

let get_desc p r =
  if r < p.cap && Bytes.get p.tags r = t_desc then
    match p.objs.(r) with Odesc d -> d | _ -> err "sim: expected descriptor operand"
  else err "sim: expected descriptor operand"

(* Boxed view of a register, for [Mov]-style generic copies done
   planewise ({!copy_reg}) and for the property tests' oracle. *)
let get_rt p r : Sim.rt =
  if r >= p.cap then Sim.Rint 0
  else
    match Bytes.get p.tags r with
    | '\000' -> Sim.Rint p.ints.(r)
    | '\001' -> Sim.Rfloat p.floats.(r)
    | '\002' -> Sim.Rbool (Bytes.get p.bools r <> '\000')
    | '\003' -> (
      match p.objs.(r) with Otensor t -> Sim.Rtensor t | _ -> Sim.Rnone)
    | '\004' -> (
      match p.objs.(r) with Odesc d -> Sim.Rdesc d | _ -> Sim.Rnone)
    | _ -> Sim.Rnone

let set_rt p r (v : Sim.rt) =
  match v with
  | Sim.Rint i -> set_int p r i
  | Sim.Rfloat f -> set_float p r f
  | Sim.Rbool b -> set_bool p r b
  | Sim.Rtensor t -> set_tensor p r t
  | Sim.Rdesc d -> set_desc p r d
  | Sim.Rnone -> set_none p r

(* Register-to-register copy without boxing: copy the source's
   authoritative plane cell and its tag. *)
let copy_reg p ~src ~dst =
  if src >= p.cap then set_int p dst 0
  else begin
    if dst >= p.cap then grow p dst;
    let tag = Bytes.get p.tags src in
    (match tag with
    | '\000' -> p.ints.(dst) <- p.ints.(src)
    | '\001' -> p.floats.(dst) <- p.floats.(src)
    | '\002' -> Bytes.set p.bools dst (Bytes.get p.bools src)
    | _ -> p.objs.(dst) <- p.objs.(src));
    Bytes.set p.tags dst tag
  end

(* ------------------------ execution context ----------------------- *)

(* Hot per-WG clocks, split into an all-float record so the fields are
   flat (unboxed): [spend] runs once per retired instruction, and a
   boxed [mutable float] in the mixed [wg] record would allocate on
   every update. *)
type clk = {
  mutable t : float; (* the WG's clock *)
  mutable busy : float; (* non-stalled cycles *)
  mutable wopen : float; (* completion of the latest uncommitted wgmma *)
}

(* Growable float ring buffer for committed-but-unwaited wgmma group
   completion times (a [float Queue.t] boxes every element). *)
type fring = {
  mutable fbuf : float array;
  mutable fhead : int;
  mutable flen : int;
}

let fring_create () = { fbuf = Array.make 8 0.0; fhead = 0; flen = 0 }

let fring_push r v =
  let cap = Array.length r.fbuf in
  if r.flen >= cap then begin
    let bigger = Array.make (2 * cap) 0.0 in
    for i = 0 to r.flen - 1 do
      bigger.(i) <- r.fbuf.((r.fhead + i) mod cap)
    done;
    r.fbuf <- bigger;
    r.fhead <- 0
  end;
  r.fbuf.((r.fhead + r.flen) mod Array.length r.fbuf) <- v;
  r.flen <- r.flen + 1

let fring_pop r =
  let v = r.fbuf.(r.fhead) in
  r.fhead <- (r.fhead + 1) mod Array.length r.fbuf;
  r.flen <- r.flen - 1;
  v

(* Shared pipe availability horizons, flat for the same reason. *)
type pipes = { mutable tma_free : float; mutable tc_free : float }

type wg = {
  index : int;
  role : Op.wg_role;
  ctx : ectx; (* the CTA this WG runs in: units take only the WG *)
  code : code array;
  (* Unit metadata driving the scheduler loop ({!Engine.run_decoded}).
     [lens.(pc)] is how many source instructions the unit at [pc]
     retires (1 except for timing-mode cost blocks); [local] marks
     units that may retire inside an ongoing scheduler slot (timing
     mode only; all-zero otherwise). *)
  lens : int array;
  local : Bytes.t;
  mutable pc : int;
  c : clk;
  planes : planes;
  mutable state : Sim.wg_state;
  wgmma_groups : fring;
  mutable pop_round : int;
  mutable wg_pid : int array option;
  mutable instret : int;
  mutable in_ready : bool; (* membership flag for the ready heap *)
  buckets : float array; (* per-Stall-bucket cycle attribution *)
  cells : float array;
      (* per-(pc, bucket) attribution, mirroring [Sim.wg.cells]:
         [Stall.num] entries per source instruction, row-major by pc.
         Empty for the probe scratch WG (cost probing must not
         attribute). *)
}

and ectx = {
  cfg : Config.t;
  mutable wgs : wg array; (* set once by [make_ctx], after the WGs exist *)
  mutable pid : int array;
  num_programs : int array;
  mbars : Mbarrier.t array;
  rings : Mbarrier.t array;
  smem : Tensor.t option array; (* dense, indexed alloc_base + slot *)
  smem_base : int array;
  smem_slots : int array;
  smem_over : (int * int, Tensor.t) Hashtbl.t; (* out-of-range fallback *)
  pipes : pipes; (* shared TMA/TC pipe horizons, flat floats *)
  mutable fence_waiters : int list;
  mutable popped : int array;
  mutable popped_len : int;
  pop_global : unit -> int;
  stats : Sim.stats;
  (* Blocked waiters per barrier, woken by the barrier's notify hook. *)
  mbar_waiters : (int * wg) list array;
  ring_waiters : (int * wg) list array;
  ready : ready;
  mbar_wait : float array; (* per-channel blocked time (excl. sync cost) *)
  ring_wait : float array;
  num_rings : int; (* program ring count; ring arrays are padded to >= 1 *)
  recorder : Tawa_obs.Prof.t option;
      (* deep-profiler event sink, mirroring [Sim.cta.recorder]. Read at
         runtime by the compiled closures — never captured — so a
         recorder does not perturb the decode cache. *)
}

and code = wg -> unit

(* Binary min-heap of runnable warp groups keyed [(time, index)] —
   the reference scheduler's selection order. A WG's key is stable
   while enqueued: its clock only moves when it executes (popped) or
   when it is unblocked (pushed afterwards). *)
and ready = { mutable heap : wg array; mutable n : int }

let wg_before a b = a.c.t < b.c.t || (a.c.t = b.c.t && a.index < b.index)

let ready_push ctx w =
  let q = ctx.ready in
  if not w.in_ready then begin
    w.in_ready <- true;
    if q.n >= Array.length q.heap then begin
      let cap = max 4 (2 * Array.length q.heap) in
      let bigger = Array.make cap w in
      Array.blit q.heap 0 bigger 0 q.n;
      q.heap <- bigger
    end;
    q.heap.(q.n) <- w;
    let i = ref q.n in
    q.n <- q.n + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if wg_before q.heap.(!i) q.heap.(parent) then begin
        let tmp = q.heap.(parent) in
        q.heap.(parent) <- q.heap.(!i);
        q.heap.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done
  end

(* Pop the earliest ready WG; requires [ctx.ready.n > 0] (the
   scheduler checks emptiness first to keep the hot path option-free). *)
let ready_pop_exn ctx =
  let q = ctx.ready in
  let top = q.heap.(0) in
  q.n <- q.n - 1;
  if q.n > 0 then begin
    q.heap.(0) <- q.heap.(q.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < q.n && wg_before q.heap.(l) q.heap.(!smallest) then smallest := l;
      if r < q.n && wg_before q.heap.(r) q.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = q.heap.(!smallest) in
        q.heap.(!smallest) <- q.heap.(!i);
        q.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top.in_ready <- false;
  top

let ready_pop ctx = if ctx.ready.n = 0 then None else Some (ready_pop_exn ctx)

(* ------------------------------ SMEM ------------------------------ *)

let smem_set ctx alloc slot t =
  if
    alloc >= 0
    && alloc < Array.length ctx.smem_slots
    && slot >= 0
    && slot < ctx.smem_slots.(alloc)
  then ctx.smem.(ctx.smem_base.(alloc) + slot) <- Some t
  else Hashtbl.replace ctx.smem_over (alloc, slot) t

let smem_get ctx alloc slot =
  if
    alloc >= 0
    && alloc < Array.length ctx.smem_slots
    && slot >= 0
    && slot < ctx.smem_slots.(alloc)
  then
    match ctx.smem.(ctx.smem_base.(alloc) + slot) with
    | Some t -> t
    | None -> err "sim: read of unwritten SMEM slot (alloc %d slot %d)" alloc slot
  else
    match Hashtbl.find_opt ctx.smem_over (alloc, slot) with
    | Some t -> t
    | None -> err "sim: read of unwritten SMEM slot (alloc %d slot %d)" alloc slot

(* ------------------------- event wake-ups ------------------------- *)

(* Per-(pc, bucket) attribution mirror of [Sim.charge_cell]. Bounds
   guard covers the probe scratch WG (empty cells) — real WGs always
   charge in range because the pc points at the consuming instruction. *)
let[@inline] charge_cell w b c =
  let o = (w.pc * Tawa_obs.Stall.num) + b in
  if o >= 0 && o < Array.length w.cells then w.cells.(o) <- w.cells.(o) +. c

let[@inline] spend w b c =
  w.c.t <- w.c.t +. c;
  w.c.busy <- w.c.busy +. c;
  w.buckets.(b) <- w.buckets.(b) +. c;
  charge_cell w b c

(* Blocked-time jump attribution; same guard as [Sim.stalled]. *)
let stalled w b dt =
  if dt > 0.0 then begin
    w.buckets.(b) <- w.buckets.(b) +. dt;
    charge_cell w b dt
  end

(* ------------- deep-profiler recording (mirrors Sim's) ------------- *)

let ring_chan ctx r = Array.length ctx.mbars + r

let rec_completion ctx w chan (b : Mbarrier.t) completed =
  match ctx.recorder with
  | Some r when completed ->
    let n = Mbarrier.completions b in
    Tawa_obs.Prof.record_completion r ~chan ~n
      ~time:(Mbarrier.completion_time b n) ~wg:w.index ~pc:w.pc ~issue:w.c.t
  | _ -> ()

let rec_wait ctx w chan ~target ~start ~ready =
  match ctx.recorder with
  | Some r ->
    Tawa_obs.Prof.record_wait r ~chan ~wg:w.index ~pc:w.pc ~target ~start
      ~ready ~resume:w.c.t
  | None -> ()

let rec_op ctx w ~pc ~t0 =
  match ctx.recorder with
  | Some r when w.c.t > t0 ->
    Tawa_obs.Prof.record_op r ~wg:w.index ~pc ~t0 ~t1:w.c.t
  | _ -> ()

(* Wake every waiter of barrier [i] whose target is now satisfied.
   The unblock arithmetic matches [Sim.try_unblock] exactly: the
   recorded completion time and the waiter's frozen clock fully
   determine the wake time, so waking eagerly at arrival is
   bit-identical to the reference's rescan-every-iteration. *)
let wake_mbar_one ctx i bar target w =
  let ct = Mbarrier.completion_time bar target in
  let t0 = w.c.t in
  let nt = fmax w.c.t ct +. ctx.cfg.Config.mbar_cycles in
  stalled w b_mbar (nt -. w.c.t);
  ctx.mbar_wait.(i) <-
    ctx.mbar_wait.(i) +. fmax 0.0 (fmax w.c.t ct -. w.c.t);
  Mbarrier.note_consumed bar ~target;
  w.c.t <- nt;
  rec_wait ctx w i ~target ~start:t0 ~ready:ct;
  rec_op ctx w ~pc:w.pc ~t0;
  w.state <- Sim.Running;
  w.pc <- w.pc + 1;
  ready_push ctx w

let wake_mbar ctx i bar =
  match ctx.mbar_waiters.(i) with
  | [] -> ()
  (* The overwhelmingly common case — one blocked consumer — skips the
     [List.filter] closure and list rebuild. *)
  | [ (target, w) ] ->
    if Mbarrier.completions bar >= target then begin
      ctx.mbar_waiters.(i) <- [];
      wake_mbar_one ctx i bar target w
    end
  | waiters ->
    let have = Mbarrier.completions bar in
    let still =
      List.filter
        (fun (target, w) ->
          if have >= target then begin
            wake_mbar_one ctx i bar target w;
            false
          end
          else true)
        waiters
    in
    ctx.mbar_waiters.(i) <- still

let wake_ring_one ctx i ring target w =
  let ct = Mbarrier.completion_time ring target in
  let t0 = w.c.t in
  let nt = fmax w.c.t ct +. ctx.cfg.Config.scalar_cycles in
  stalled w b_ring (nt -. w.c.t);
  ctx.ring_wait.(i) <-
    ctx.ring_wait.(i) +. fmax 0.0 (fmax w.c.t ct -. w.c.t);
  Mbarrier.note_consumed ring ~target;
  w.c.t <- nt;
  rec_wait ctx w (ring_chan ctx i) ~target ~start:t0 ~ready:ct;
  rec_op ctx w ~pc:w.pc ~t0;
  w.state <- Sim.Running;
  w.pc <- w.pc + 1;
  ready_push ctx w

let wake_ring ctx i ring =
  match ctx.ring_waiters.(i) with
  | [] -> ()
  | [ (target, w) ] ->
    if Mbarrier.completions ring >= target then begin
      ctx.ring_waiters.(i) <- [];
      wake_ring_one ctx i ring target w
    end
  | waiters ->
    let have = Mbarrier.completions ring in
    let still =
      List.filter
        (fun (target, w) ->
          if have >= target then begin
            wake_ring_one ctx i ring target w;
            false
          end
          else true)
        waiters
    in
    ctx.ring_waiters.(i) <- still

(* Mirror of [Sim.release_fences], plus re-enqueueing the released
   waiters. Checked on [Fence] arrival and on [Exit]. *)
let release_fences ctx =
  if ctx.fence_waiters <> [] then begin
    let live =
      Array.fold_left
        (fun n w -> if w.state <> Sim.Finished then n + 1 else n)
        0 ctx.wgs
    in
    if List.length ctx.fence_waiters >= live then begin
      let tmax =
        List.fold_left
          (fun acc i -> fmax acc ctx.wgs.(i).c.t)
          0.0 ctx.fence_waiters
      in
      List.iter
        (fun i ->
          let w = ctx.wgs.(i) in
          let nt = tmax +. ctx.cfg.Config.fence_cycles in
          let t0 = w.c.t in
          stalled w b_fence (nt -. w.c.t);
          w.c.t <- nt;
          rec_op ctx w ~pc:w.pc ~t0;
          w.state <- Sim.Running;
          w.pc <- w.pc + 1;
          ready_push ctx w)
        ctx.fence_waiters;
      ctx.fence_waiters <- []
    end
  end

(* ----------------------- operand compilers ------------------------ *)

(* Pre-resolve an operand to a closure per coercion; immediates fold
   to captured constants (the coercion applied once, at decode). *)

let iget (o : Isa.operand) : planes -> int =
  match o with
  | Isa.Imm i -> fun _ -> i
  | Isa.Fimm f ->
    let i = int_of_float f in
    fun _ -> i
  | Isa.Reg r -> fun p -> get_int p r

let fget (o : Isa.operand) : planes -> float =
  match o with
  | Isa.Imm i ->
    let f = Float.of_int i in
    fun _ -> f
  | Isa.Fimm f -> fun _ -> f
  | Isa.Reg r -> fun p -> get_float p r

let bget (o : Isa.operand) : planes -> bool =
  match o with
  | Isa.Imm i ->
    let b = i <> 0 in
    fun _ -> b
  | Isa.Fimm f ->
    let b = f <> 0.0 in
    fun _ -> b
  | Isa.Reg r -> fun p -> get_bool p r

let tget (o : Isa.operand) : planes -> Tensor.t =
  match o with
  | Isa.Reg r -> fun p -> get_tensor p r
  | Isa.Imm _ | Isa.Fimm _ -> fun _ -> err "sim: expected tensor operand"

let dget (o : Isa.operand) : planes -> Sim.desc =
  match o with
  | Isa.Reg r -> fun p -> get_desc p r
  | Isa.Imm _ | Isa.Fimm _ -> fun _ -> err "sim: expected descriptor operand"

(* Operand kind for the ALU/Cmp dispatch: immediates are static. *)
let kget (o : Isa.operand) : planes -> char =
  match o with
  | Isa.Imm _ -> fun _ -> t_int
  | Isa.Fimm _ -> fun _ -> t_float
  | Isa.Reg r -> fun p -> tag_of p r

(* [scalar_cmp]'s float coercion admits bools (1.0/0.0) where
   [as_float] would too, but errs with the reference's terse "cmp". *)
let cget (o : Isa.operand) : planes -> float =
  match o with
  | Isa.Imm i ->
    let f = Float.of_int i in
    fun _ -> f
  | Isa.Fimm f -> fun _ -> f
  | Isa.Reg r -> (
    fun p ->
      if r >= p.cap then 0.0
      else
        match Bytes.get p.tags r with
        | '\001' -> p.floats.(r)
        | '\000' -> Float.of_int p.ints.(r)
        | '\002' -> if Bytes.get p.bools r <> '\000' then 1.0 else 0.0
        | _ -> err "cmp")

(* Inline form of [cget]'s register path, for registers statically
   below the planes' floor capacity (tag already read). *)
let[@inline] cmp_coerce p r t =
  if t = t_float then p.floats.(r)
  else if t = t_int then Float.of_int p.ints.(r)
  else if t = t_bool then if Bytes.get p.bools r <> '\000' then 1.0 else 0.0
  else err "cmp"

(* Inline form of [get_bool]'s register path under the same floor-
   capacity precondition; same coercions and error string. *)
let[@inline] bool_at p r =
  match Bytes.unsafe_get p.tags r with
  | '\002' -> Bytes.get p.bools r <> '\000'
  | '\000' -> p.ints.(r) <> 0
  | '\001' -> p.floats.(r) <> 0.0
  | _ -> err "sim: expected predicate operand"

(* Generic-value put (Mov/Sel): immediates fold to a typed store, a
   register source is a planewise copy. *)
let put_of (dst : Isa.reg) (o : Isa.operand) : planes -> unit =
  match o with
  | Isa.Imm i -> fun p -> set_int p dst i
  | Isa.Fimm f -> fun p -> set_float p dst f
  | Isa.Reg r -> fun p -> copy_reg p ~src:r ~dst

(* Typed scalar semantics for the [Alu]/[Cmp] units, mirroring
   [Sim.scalar_alu]/[Sim.scalar_cmp] (error strings included). Each is
   inlined into its unit, so the opcode match runs inside the one
   closure and every comparison is monomorphic: no second closure per
   instruction, no polymorphic [compare_val] per integer compare, no
   boxed floats. [float_op] is [Interp.float_binop] expression for
   expression; [Min]/[Max] on ints are [Stdlib.min]/[max]. *)
let[@inline] int_op (op : Op.binop) (x : int) (y : int) =
  match op with
  | Op.Add -> x + y
  | Op.Sub -> x - y
  | Op.Mul -> x * y
  | Op.Div -> if y = 0 then err "sim: div by zero" else x / y
  | Op.Rem -> if y = 0 then err "sim: rem by zero" else x mod y
  | Op.Min -> if x <= y then x else y
  | Op.Max -> if x >= y then x else y
  | Op.And -> x land y
  | Op.Or -> x lor y
  | Op.Xor -> x lxor y

let[@inline] float_op (op : Op.binop) (a : float) (b : float) =
  match op with
  | Op.Add -> a +. b
  | Op.Sub -> a -. b
  | Op.Mul -> a *. b
  | Op.Div -> a /. b
  | Op.Rem -> Float.rem a b
  | Op.Min -> Float.min a b
  | Op.Max -> Float.max a b
  | Op.And -> Float.of_int (int_of_float a land int_of_float b)
  | Op.Or -> Float.of_int (int_of_float a lor int_of_float b)
  | Op.Xor -> Float.of_int (int_of_float a lxor int_of_float b)

let[@inline] int_cmp (op : Op.cmp) (x : int) (y : int) =
  match op with
  | Op.Eq -> x = y
  | Op.Ne -> x <> y
  | Op.Lt -> x < y
  | Op.Le -> x <= y
  | Op.Gt -> x > y
  | Op.Ge -> x >= y

let[@inline] float_cmp (op : Op.cmp) (x : float) (y : float) =
  match op with
  | Op.Eq -> x = y
  | Op.Ne -> x <> y
  | Op.Lt -> x < y
  | Op.Le -> x <= y
  | Op.Gt -> x > y
  | Op.Ge -> x >= y

(* Offset operands: the reference reads [List.nth offs 0] and, when
   present, [List.nth offs 1] (extra dims ignored). An empty list
   fails at run time like [List.nth] would — only reachable in
   functional closures, as in the reference. *)
let compile_offs (offs : Isa.operand list) =
  match offs with
  | o0 :: rest ->
    let i0 = iget o0 in
    let i1 = match rest with o1 :: _ -> iget o1 | [] -> fun _ -> 0 in
    (i0, i1)
  | [] -> ((fun _ -> failwith "nth"), fun _ -> 0)

(* --------------------- instruction compilation -------------------- *)

let compile_instr ~(cfg : Config.t) ~coop (i : Isa.instr) : code =
  let functional = Config.is_functional cfg in
  let sc = cfg.Config.scalar_cycles in
  let tile_cost ~elems ~per_cycle = Sim.tile_cost cfg coop ~elems ~per_cycle in
  match i with
  | Isa.Nop ->
    fun w ->
      spend w b_compute 1.0;
      w.pc <- w.pc + 1
  | Isa.Alu { op; dst; a; b } -> (
    match (a, b) with
    (* Monolithic arm for the hot register/register shape: real WG
       planes start at capacity 64 and only grow ({!make_ctx}), so for
       registers < 64 the tag/plane reads need no capacity guard and
       the generic operand-getter closures collapse to direct loads.
       Dispatch, coercions, and error strings mirror the generic path
       (and thus [Sim.step]) exactly. *)
    | Isa.Reg ra, Isa.Reg rb when ra < 64 && rb < 64 && dst < 64 ->
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra
        and tb = Bytes.unsafe_get p.tags rb in
        (if ta = t_int && tb = t_int then begin
           Bytes.unsafe_set p.tags dst t_int;
           p.ints.(dst) <- int_op op p.ints.(ra) p.ints.(rb)
         end
         else if ta <= t_float && tb <= t_float then begin
           let fa =
             if ta = t_float then p.floats.(ra) else Float.of_int p.ints.(ra)
           and fb =
             if tb = t_float then p.floats.(rb) else Float.of_int p.ints.(rb)
           in
           Bytes.unsafe_set p.tags dst t_float;
           p.floats.(dst) <- float_op op fa fb
         end
         else err "sim: bad ALU operands");
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Reg ra, Isa.Imm ib when ra < 64 && dst < 64 ->
      let fb = Float.of_int ib in
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra in
        (if ta = t_int then begin
           Bytes.unsafe_set p.tags dst t_int;
           p.ints.(dst) <- int_op op p.ints.(ra) ib
         end
         else if ta = t_float then begin
           Bytes.unsafe_set p.tags dst t_float;
           p.floats.(dst) <- float_op op p.floats.(ra) fb
         end
         else err "sim: bad ALU operands");
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | _ ->
      let ka = kget a and kb = kget b in
      let ia = iget a and ib = iget b in
      let fa = fget a and fb = fget b in
      fun w ->
        let p = w.planes in
        let ta = ka p and tb = kb p in
        (if ta = t_int && tb = t_int then set_int p dst (int_op op (ia p) (ib p))
         else if ta <= t_float && tb <= t_float then
           set_float p dst (float_op op (fa p) (fb p))
         else err "sim: bad ALU operands");
        spend w b_compute sc;
        w.pc <- w.pc + 1)
  | Isa.Cmp { op; dst; a; b } -> (
    match (a, b) with
    | Isa.Reg ra, Isa.Reg rb when ra < 64 && rb < 64 && dst < 64 ->
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra
        and tb = Bytes.unsafe_get p.tags rb in
        let v =
          if ta = t_int && tb = t_int then int_cmp op p.ints.(ra) p.ints.(rb)
          else float_cmp op (cmp_coerce p ra ta) (cmp_coerce p rb tb)
        in
        Bytes.unsafe_set p.tags dst t_bool;
        Bytes.unsafe_set p.bools dst (if v then '\001' else '\000');
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Reg ra, Isa.Imm ib when ra < 64 && dst < 64 ->
      let fb = Float.of_int ib in
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra in
        let v =
          if ta = t_int then int_cmp op p.ints.(ra) ib
          else float_cmp op (cmp_coerce p ra ta) fb
        in
        Bytes.unsafe_set p.tags dst t_bool;
        Bytes.unsafe_set p.bools dst (if v then '\001' else '\000');
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | _ ->
      let ka = kget a and kb = kget b in
      let ia = iget a and ib = iget b in
      let ca = cget a and cb = cget b in
      fun w ->
        let p = w.planes in
        (if ka p = t_int && kb p = t_int then
           set_bool p dst (int_cmp op (ia p) (ib p))
         else set_bool p dst (float_cmp op (ca p) (cb p)));
        spend w b_compute sc;
        w.pc <- w.pc + 1)
  | Isa.Mov { dst; src } -> (
    match src with
    | Isa.Imm i ->
      fun w ->
        set_int w.planes dst i;
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Fimm f ->
      fun w ->
        set_float w.planes dst f;
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Reg r ->
      fun w ->
        copy_reg w.planes ~src:r ~dst;
        spend w b_compute sc;
        w.pc <- w.pc + 1)
  | Isa.Sel { dst; cond; a; b } ->
    let bc = bget cond in
    let put_a = put_of dst a and put_b = put_of dst b in
    fun w ->
      let p = w.planes in
      if bc p then put_a p else put_b p;
      spend w b_compute sc;
      w.pc <- w.pc + 1
  | Isa.Pid { dst; axis } ->
    fun w ->
      let ctx = w.ctx in
      let pid = match w.wg_pid with Some p -> p | None -> ctx.pid in
      set_int w.planes dst pid.(axis);
      spend w b_compute sc;
      w.pc <- w.pc + 1
  | Isa.Npid { dst; axis } ->
    fun w ->
      let ctx = w.ctx in
      set_int w.planes dst ctx.num_programs.(axis);
      spend w b_compute sc;
      w.pc <- w.pc + 1
  | Isa.Mkdesc { dst; ptr; dtype; _ } ->
    let read_ptr : planes -> Tensor.t option =
      match ptr with
      | Isa.Reg r -> (
        fun p ->
          if r >= p.cap then
            err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)"
          else
            match Bytes.get p.tags r with
            | '\003' -> (
              match p.objs.(r) with
              | Otensor t -> Some t
              | _ ->
                err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)")
            | '\005' -> None
            | _ ->
              err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)")
      | Isa.Imm _ | Isa.Fimm _ ->
        fun _ ->
          err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)"
    in
    fun w ->
      let buffer = read_ptr w.planes in
      set_desc w.planes dst { Sim.buffer; ddtype = dtype };
      spend w b_compute 20.0;
      w.pc <- w.pc + 1
  | Isa.Tile_unop { op; dst; src; elems } ->
    let per_cycle =
      match op with
      | Op.Exp | Op.Exp2 | Op.Log | Op.Log2 | Op.Sqrt | Op.Rsqrt ->
        cfg.Config.sfu_elems_per_cycle
      | Op.Neg | Op.Abs | Op.Not -> cfg.Config.cuda_elems_per_cycle
    in
    let c = tile_cost ~elems ~per_cycle in
    if functional then begin
      let ts = tget src in
      fun w ->
        spend w b_compute c;
        set_tensor w.planes dst (Interp.tile_unop op (ts w.planes));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_binop { op; dst; a; b; elems } ->
    let c = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then begin
      let ta = tget a and tb = tget b in
      fun w ->
        spend w b_compute c;
        let p = w.planes in
        set_tensor p dst (Interp.tile_binop op (ta p) (tb p));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_cmp { op; dst; a; b; elems } ->
    let c = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then begin
      let ta = tget a and tb = tget b in
      fun w ->
        spend w b_compute c;
        let p = w.planes in
        set_tensor p dst (Interp.tile_cmp op (ta p) (tb p));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_select { dst; cond; a; b; elems } ->
    let c = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then begin
      let tc = tget cond and ta = tget a and tb = tget b in
      fun w ->
        spend w b_compute c;
        let p = w.planes in
        set_tensor p dst (Interp.tile_select (tc p) (ta p) (tb p));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_cast { dst; src; dtype; elems } ->
    let c = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then begin
      let ts = tget src in
      fun w ->
        spend w b_compute c;
        set_tensor w.planes dst (Tensor.cast dtype (ts w.planes));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_splat { dst; src; shape; dtype } ->
    let elems = List.fold_left ( * ) 1 shape in
    let c = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then begin
      let shape = Array.of_list shape in
      let fs = fget src in
      fun w ->
        spend w b_compute c;
        let t = Tensor.create ~dtype shape in
        Tensor.fill t (fs w.planes);
        set_tensor w.planes dst t;
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_iota { dst; n } ->
    let c = tile_cost ~elems:n ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then
      fun w ->
        spend w b_compute c;
        set_tensor w.planes dst (Interp.tile_iota n);
        w.pc <- w.pc + 1
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_bcast { dst; src; shape } ->
    let elems = List.fold_left ( * ) 1 shape in
    let c = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
    if functional then begin
      let ts = tget src in
      fun w ->
        spend w b_compute c;
        set_tensor w.planes dst (Interp.broadcast_to (ts w.planes) shape);
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_reshape { dst; src; shape } ->
    if functional then begin
      let shape = Array.of_list shape in
      let ts = tget src in
      fun w ->
        spend w b_compute sc;
        set_tensor w.planes dst (Tensor.reshape (ts w.planes) shape);
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute sc;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_reduce { kind; axis; dst; src; elems } ->
    let c = tile_cost ~elems ~per_cycle:cfg.Config.reduce_elems_per_cycle in
    if functional then begin
      let ts = tget src in
      fun w ->
        spend w b_compute c;
        set_tensor w.planes dst (Interp.reduce_tensor kind axis (ts w.planes));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tile_trans { dst; src; elems } ->
    let c = tile_cost ~elems ~per_cycle:cfg.Config.trans_elems_per_cycle in
    if functional then begin
      let ts = tget src in
      fun w ->
        spend w b_compute c;
        set_tensor w.planes dst (Tensor.transpose2 (ts w.planes));
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_compute c;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Tma_load { desc; offs; dst; rows; cols; dtype; full } ->
    let issue = cfg.Config.tma_issue_cycles in
    let bytes = Float.of_int (Sim.bytes_of ~rows ~cols dtype) in
    let busy = bytes /. cfg.Config.tma_bytes_per_cycle in
    let latency = cfg.Config.tma_latency in
    let bar_base = full.Isa.base in
    let bar_idx = iget full.Isa.index in
    let timing w =
      let ctx = w.ctx in
      spend w b_tma issue;
      let start = fmax ctx.pipes.tma_free w.c.t in
      ctx.pipes.tma_free <- start +. busy;
      ctx.stats.Sim.tma_busy <- ctx.stats.Sim.tma_busy +. busy;
      ctx.stats.Sim.tma_bytes <- ctx.stats.Sim.tma_bytes +. bytes;
      ctx.stats.Sim.tma_count <- ctx.stats.Sim.tma_count + 1;
      let completion = start +. busy +. latency in
      let bar = bar_base + bar_idx w.planes in
      rec_completion ctx w bar ctx.mbars.(bar)
        (Mbarrier.arrive ctx.mbars.(bar) ~time:completion)
    in
    if functional then begin
      let dd = dget desc in
      let i0, i1 = compile_offs offs in
      (* 1-D loads address the column axis of a row vector. *)
      let swap = rows = 1 && List.length offs = 1 in
      let alloc = dst.Isa.alloc in
      let islot = iget dst.Isa.slot in
      fun w ->
        let ctx = w.ctx in
        timing w;
        let p = w.planes in
        let d = dd p in
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          let r0, c0 = if swap then (0, r0) else (r0, c0) in
          smem_set ctx alloc (islot p)
            (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
        | None -> err "sim: functional TMA load without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        timing w;
        w.pc <- w.pc + 1
  | Isa.Cp_async { ring; desc; offs; dst; rows; cols; dtype; last } ->
    let bytes = Sim.bytes_of ~rows ~cols dtype in
    let chunks = (bytes + cfg.Config.cp_chunk_bytes - 1) / cfg.Config.cp_chunk_bytes in
    let issue = Float.of_int chunks *. cfg.Config.cp_issue_cycles_per_chunk in
    let busy = Float.of_int bytes /. cfg.Config.cp_async_bytes_per_cycle in
    let fbytes = Float.of_int bytes in
    let latency = cfg.Config.tma_latency in
    let timing w =
      let ctx = w.ctx in
      spend w b_tma issue;
      let start = fmax ctx.pipes.tma_free w.c.t in
      ctx.pipes.tma_free <- start +. busy;
      ctx.stats.Sim.tma_busy <- ctx.stats.Sim.tma_busy +. busy;
      ctx.stats.Sim.tma_bytes <- ctx.stats.Sim.tma_bytes +. fbytes;
      let completion = start +. busy +. latency in
      if last then
        rec_completion ctx w (ring_chan ctx ring) ctx.rings.(ring)
          (Mbarrier.arrive ctx.rings.(ring) ~time:completion)
    in
    if functional then begin
      let dd = dget desc in
      let i0, i1 = compile_offs offs in
      let alloc = dst.Isa.alloc in
      let islot = iget dst.Isa.slot in
      fun w ->
        let ctx = w.ctx in
        timing w;
        let p = w.planes in
        let d = dd p in
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          smem_set ctx alloc (islot p)
            (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
        | None -> err "sim: functional cp.async without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        timing w;
        w.pc <- w.pc + 1
  | Isa.Cp_wait_ring { ring; target } ->
    let itgt = iget target in
    fun w ->
      let ctx = w.ctx in
      (* [Mbarrier.try_wait] unrolled to avoid boxing the option. *)
      let tgt = itgt w.planes in
      let rb = ctx.rings.(ring) in
      if tgt <= 0 || Mbarrier.completions rb >= tgt then begin
        let t = if tgt <= 0 then 0.0 else Mbarrier.completion_time rb tgt in
        let t0 = w.c.t in
        let wait = fmax w.c.t t -. w.c.t in
        stalled w b_ring wait;
        ctx.ring_wait.(ring) <- ctx.ring_wait.(ring) +. fmax 0.0 wait;
        Mbarrier.note_consumed rb ~target:tgt;
        w.c.t <- fmax w.c.t t;
        spend w b_ring sc;
        rec_wait ctx w (ring_chan ctx ring) ~target:tgt ~start:t0 ~ready:t;
        w.pc <- w.pc + 1
      end
      else begin
        w.state <- Sim.Blocked (Sim.On_ring { ring; target = tgt });
        ctx.ring_waiters.(ring) <- (tgt, w) :: ctx.ring_waiters.(ring)
      end
  | Isa.Ldg { dst; desc; offs; rows; cols; dtype } ->
    let bytes = Float.of_int (Sim.bytes_of ~rows ~cols dtype) in
    let cost = cfg.Config.tma_latency +. (bytes /. cfg.Config.ldg_bytes_per_cycle) in
    if functional then begin
      let dd = dget desc in
      let i0, i1 = compile_offs offs in
      fun w ->
        spend w b_tma cost;
        let p = w.planes in
        let d = dd p in
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          set_tensor p dst (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
        | None -> err "sim: functional ldg without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_tma cost;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Lds { dst; src; shape; dtype } ->
    let bytes = List.fold_left ( * ) 1 shape * Dtype.size_bytes dtype in
    let cost =
      Float.of_int bytes /. cfg.Config.smem_bytes_per_cycle /. Float.of_int coop
    in
    if functional then begin
      let alloc = src.Isa.src.Isa.alloc in
      let islot = iget src.Isa.src.Isa.slot in
      let transposed = src.Isa.transposed in
      fun w ->
        let ctx = w.ctx in
        spend w b_tma cost;
        let t = smem_get ctx alloc (islot w.planes) in
        let t = if transposed then Tensor.transpose2 t else t in
        set_tensor w.planes dst t;
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_tma cost;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Sts { src; dst; elems; dtype } ->
    let bytes = elems * Dtype.size_bytes dtype in
    let cost =
      Float.of_int bytes /. cfg.Config.smem_bytes_per_cycle /. Float.of_int coop
    in
    if functional then begin
      let ts = tget src in
      let alloc = dst.Isa.alloc in
      let islot = iget dst.Isa.slot in
      fun w ->
        let ctx = w.ctx in
        spend w b_tma cost;
        let p = w.planes in
        smem_set ctx alloc (islot p) (ts p);
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_tma cost;
        w.pc <- w.pc + 1
  | Isa.Stg { desc; offs; src; rows; cols } ->
    let dd = dget desc in
    let coop_f = Float.of_int coop in
    let stg_bpc = cfg.Config.stg_bytes_per_cycle in
    let stg_lat = cfg.Config.stg_latency in
    if functional then begin
      let ts = tget src in
      let i0, i1 = compile_offs offs in
      fun w ->
        let p = w.planes in
        let d = dd p in
        let bytes = Float.of_int (Sim.bytes_of ~rows ~cols d.Sim.ddtype) in
        spend w b_tma ((bytes /. stg_bpc /. coop_f) +. stg_lat);
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          Tensor.blit2 ~dst:buf ~r0 ~c0 (Tensor.cast d.Sim.ddtype (ts p))
        | None -> err "sim: functional store without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        let d = dd w.planes in
        let bytes = Float.of_int (Sim.bytes_of ~rows ~cols d.Sim.ddtype) in
        spend w b_tma ((bytes /. stg_bpc /. coop_f) +. stg_lat);
        w.pc <- w.pc + 1
  | Isa.Mbar_arrive { base; index } ->
    let idx = iget index in
    let mc = cfg.Config.mbar_cycles in
    fun w ->
      let ctx = w.ctx in
      spend w b_mbar mc;
      let bar = base + idx w.planes in
      rec_completion ctx w bar ctx.mbars.(bar)
        (Mbarrier.arrive ctx.mbars.(bar) ~time:w.c.t);
      w.pc <- w.pc + 1
  | Isa.Mbar_wait { bar; target } ->
    let base = bar.Isa.base in
    let idx = iget bar.Isa.index in
    let itgt = iget target in
    let mc = cfg.Config.mbar_cycles in
    fun w ->
      let ctx = w.ctx in
      (* [Mbarrier.try_wait] unrolled to avoid boxing the option. *)
      let p = w.planes in
      let b = base + idx p in
      let tgt = itgt p in
      let mb = ctx.mbars.(b) in
      if tgt <= 0 || Mbarrier.completions mb >= tgt then begin
        let t = if tgt <= 0 then 0.0 else Mbarrier.completion_time mb tgt in
        let t0 = w.c.t in
        let wait = fmax w.c.t t -. w.c.t in
        stalled w b_mbar wait;
        ctx.mbar_wait.(b) <- ctx.mbar_wait.(b) +. fmax 0.0 wait;
        Mbarrier.note_consumed mb ~target:tgt;
        w.c.t <- fmax w.c.t t;
        spend w b_mbar mc;
        rec_wait ctx w b ~target:tgt ~start:t0 ~ready:t;
        w.pc <- w.pc + 1
      end
      else begin
        w.state <- Sim.Blocked (Sim.On_mbar { bar = b; target = tgt });
        ctx.mbar_waiters.(b) <- (tgt, w) :: ctx.mbar_waiters.(b)
      end
  | Isa.Wgmma { a; b; acc; m; n; k; dtype } ->
    let issue = cfg.Config.wgmma_issue_cycles in
    let flops = 2.0 *. Float.of_int m *. Float.of_int n *. Float.of_int k in
    let pen1000 = cfg.Config.wgmma_depth_penalty /. 1000.0 in
    let denom = Config.tc_flops_per_cycle cfg dtype *. cfg.Config.tc_efficiency in
    let timing w =
      let ctx = w.ctx in
      spend w b_tc issue;
      let pressure =
        1.0 +. (pen1000 *. Float.of_int (max 0 (w.wgmma_groups.flen - 1)))
      in
      let dur = flops *. pressure /. denom in
      let start = fmax ctx.pipes.tc_free w.c.t in
      ctx.pipes.tc_free <- start +. dur;
      ctx.stats.Sim.tc_busy <- ctx.stats.Sim.tc_busy +. dur;
      ctx.stats.Sim.wgmma_count <- ctx.stats.Sim.wgmma_count + 1;
      w.c.wopen <- start +. dur
    in
    if functional then begin
      let compile_src (s : Isa.wgmma_src) : wg -> Tensor.t =
        match s with
        | Isa.Wreg r ->
          fun w ->
            let p = w.planes in
            if r < p.cap && Bytes.get p.tags r = t_tensor then
              match p.objs.(r) with
              | Otensor t -> t
              | _ -> err "sim: wgmma register operand is not a tile"
            else err "sim: wgmma register operand is not a tile"
        | Isa.Wsmem v ->
          let alloc = v.Isa.src.Isa.alloc in
          let islot = iget v.Isa.src.Isa.slot in
          let transposed = v.Isa.transposed in
          fun w ->
            let ctx = w.ctx in
            let t = smem_get ctx alloc (islot w.planes) in
            if transposed then Tensor.transpose2 t else t
      in
      let ra = compile_src a and rb = compile_src b in
      fun w ->
        timing w;
        let ta = ra w in
        let tb = rb w in
        let p = w.planes in
        let tacc =
          if acc < p.cap && Bytes.get p.tags acc = t_tensor then
            match p.objs.(acc) with
            | Otensor t -> t
            | _ -> err "sim: wgmma accumulator is not a tile"
          else err "sim: wgmma accumulator is not a tile"
        in
        set_tensor p acc (Interp.dot_tiles ta tb tacc);
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        timing w;
        w.pc <- w.pc + 1
  | Isa.Wgmma_commit ->
    fun w ->
      if w.c.wopen >= 0.0 then begin
        fring_push w.wgmma_groups w.c.wopen;
        w.c.wopen <- -1.0
      end;
      spend w b_tc 1.0;
      w.pc <- w.pc + 1
  | Isa.Wgmma_wait n ->
    fun w ->
      while w.wgmma_groups.flen > n do
        let t = fring_pop w.wgmma_groups in
        stalled w b_tc (t -. w.c.t);
        w.c.t <- fmax w.c.t t
      done;
      spend w b_tc 1.0;
      w.pc <- w.pc + 1
  | Isa.Fence ->
    fun w ->
      let ctx = w.ctx in
      w.state <- Sim.Blocked Sim.On_fence;
      ctx.fence_waiters <- w.index :: ctx.fence_waiters;
      release_fences ctx
  | Isa.Sync_reset ->
    let mc = cfg.Config.mbar_cycles in
    fun w ->
      let ctx = w.ctx in
      Array.iteri
        (fun i b ->
          Mbarrier.reset b;
          match ctx.recorder with
          | Some r ->
            Tawa_obs.Prof.record_reset r ~chan:(ring_chan ctx i) ~time:w.c.t
          | None -> ())
        ctx.rings;
      spend w b_mbar mc;
      w.pc <- w.pc + 1
  | Isa.Workq_pop { dst } ->
    let cost = cfg.Config.workq_pop_cycles in
    fun w ->
      let ctx = w.ctx in
      let round = w.pop_round in
      w.pop_round <- round + 1;
      if round >= ctx.popped_len then begin
        if ctx.popped_len >= Array.length ctx.popped then begin
          let bigger = Array.make (2 * Array.length ctx.popped) (-2) in
          Array.blit ctx.popped 0 bigger 0 ctx.popped_len;
          ctx.popped <- bigger
        end;
        ctx.popped.(ctx.popped_len) <- ctx.pop_global ();
        ctx.popped_len <- ctx.popped_len + 1
      end;
      let v = ctx.popped.(round) in
      if v >= 0 then begin
        let gx = ctx.num_programs.(0) and gy = ctx.num_programs.(1) in
        let x = v mod gx and rest = v / gx in
        let y = rest mod gy and z = rest / gy in
        w.wg_pid <- Some [| x; y; z |]
      end;
      set_int w.planes dst v;
      spend w b_compute cost;
      w.pc <- w.pc + 1
  | Isa.Bra { target } ->
    fun w ->
      spend w b_compute sc;
      w.pc <- target
  | Isa.Brz { cond; target } -> (
    match cond with
    | Isa.Reg r when r < 64 ->
      fun w ->
        spend w b_compute sc;
        if bool_at w.planes r then w.pc <- w.pc + 1 else w.pc <- target
    | _ ->
      let bc = bget cond in
      fun w ->
        spend w b_compute sc;
        if bc w.planes then w.pc <- w.pc + 1 else w.pc <- target)
  | Isa.Brnz { cond; target } -> (
    match cond with
    | Isa.Reg r when r < 64 ->
      fun w ->
        spend w b_compute sc;
        if bool_at w.planes r then w.pc <- target else w.pc <- w.pc + 1
    | _ ->
      let bc = bget cond in
      fun w ->
        spend w b_compute sc;
        if bc w.planes then w.pc <- target else w.pc <- w.pc + 1)
  | Isa.Exit ->
    fun w ->
      let ctx = w.ctx in
      w.state <- Sim.Finished;
      release_fences ctx

(* ---------------- timing-mode stream optimization ----------------- *)

(* In timing mode the decoded stream is specialized further, without
   breaking bit-identity with the reference engine:

   - {b Dead-write elision}: a register write whose value never
     (transitively) feeds a branch condition, a barrier index, a wait
     target, a store descriptor, or another live value cannot influence
     cycles, stats, profiles, or error behavior. Its closure reduces to
     its cost, and a straight-line run of such instructions collapses
     into one "cost block" that replays the per-instruction [spend]s in
     program order (float addition is not associative, so costs are
     replayed, never pre-summed). Elision is gated on a forward
     abstract interpretation of register tags proving the skipped
     closure could not have raised (operand-kind errors, int division
     by zero, pid-axis bounds): the reference engine's errors must
     still surface at the same instruction with the same message.

   - {b Superblock fusion}: instructions whose execution can neither
     affect nor observe another warp group — no barrier arrivals or
     waits, no shared-pipe contention unless this stream is the pipe's
     only owner — may retire inside the scheduler slot of their
     predecessor ([local] mask). The heap pop/push and option
     allocation per instruction become one per run. Barrier arrivals
     and waits stay slot-initial: executing an arrival early can flip
     a consumer's wait from the blocked-wake path to the
     satisfied-wait path, which charges [mbar_cycles] to busy time.

   Anything unproven keeps its exact unoptimized closure, and streams
   run unoptimized whenever the launch-time parameters do not conform
   to the decode-time parameter-type assumptions ({!make_ctx}).
   Functional mode never uses either lever: cross-WG data flow through
   shared memory makes fusion observable there. *)

let opts_enabled = Atomic.make true

(** Process-wide switch for the timing-mode decode optimizations
    (dead-write elision, cost blocks, superblock fusion), on by
    default. The bench harness disables it to measure the unoptimized
    decoded baseline; the executables map [TAWA_TIMING_OPTS=0] to it.
    Flipping it does not invalidate cached decodes — the flag is part
    of the decode-cache key ({!Engine.prepare}). *)
let set_opts_enabled b = Atomic.set opts_enabled b

let opts_on () = Atomic.get opts_enabled

(* Abstract register tags for the decode-time type analysis. The
   lattice tracks exactly the distinctions the timing closures' error
   paths depend on: int-ness (ALU dispatch, div-by-zero), scalar-ness
   (predicate/cmp coercions err on object tags), pointer-ness (Mkdesc
   accepts a bound tensor or none), and descriptor dtype (Stg's cost
   depends on it). *)
type atag =
  | Abot (* unreachable *)
  | Aint
  | Afloat
  | Abool
  | Ascalar (* int, float, or bool *)
  | Aptr (* tensor or none: a ptr param or a timing-mode tile write *)
  | Adesc of Dtype.t option (* descriptor, with static dtype if known *)
  | Aany

let ajoin a b =
  if a = b then a
  else
    match (a, b) with
    | Abot, x | x, Abot -> x
    | (Aint | Afloat | Abool | Ascalar), (Aint | Afloat | Abool | Ascalar) ->
      Ascalar
    | Adesc _, Adesc _ -> Adesc None
    | _ -> Aany

(* Decode-time assumptions about launch parameters, derived from
   [program.param_tys]. [make_ctx] re-checks the actual [Sim.rt]
   values against these and falls back to the unoptimized stream when
   a caller binds something else (the analysis would be unsound). *)
type pkind = Kint | Kscalar | Kptr | Kany

let pkind_of_ty (ty : Types.ty) =
  match ty with
  | Types.TScalar Dtype.I32 -> Kint
  | Types.TScalar _ -> Kscalar
  | Types.TPtr _ -> Kptr
  | _ -> Kany

let atag_of_pkind = function
  | Kint -> Aint
  | Kscalar -> Ascalar
  | Kptr -> Aptr
  | Kany -> Aany

let rt_conforms kind (v : Sim.rt) =
  match (kind, v) with
  | Kany, _ -> true
  | Kint, Sim.Rint _ -> true
  | Kscalar, (Sim.Rint _ | Sim.Rfloat _ | Sim.Rbool _) -> true
  | Kptr, (Sim.Rtensor _ | Sim.Rnone) -> true
  | (Kint | Kscalar | Kptr), _ -> false

let params_conform kinds params =
  let ok = ref true in
  List.iteri
    (fun r v ->
      if r < 64 && r < Array.length kinds && not (rt_conforms kinds.(r) v)
      then ok := false)
    params;
  !ok

(* Registers the TIMING closure of an instruction actually reads (the
   functional-only reads — tile sources, slot indices, offsets — do
   not exist in timing mode; see the closures above). *)
let timing_uses (i : Isa.instr) f =
  let o = function Isa.Reg r -> f r | Isa.Imm _ | Isa.Fimm _ -> () in
  match i with
  | Isa.Alu { a; b; _ } | Isa.Cmp { a; b; _ } ->
    o a;
    o b
  | Isa.Mov { src; _ } -> o src
  | Isa.Sel { cond; a; b; _ } ->
    o cond;
    o a;
    o b
  | Isa.Mkdesc { ptr; _ } -> o ptr
  | Isa.Stg { desc; _ } -> o desc
  | Isa.Tma_load { full; _ } -> o full.Isa.index
  | Isa.Mbar_arrive { Isa.index; _ } -> o index
  | Isa.Mbar_wait { bar; target } ->
    o bar.Isa.index;
    o target
  | Isa.Cp_wait_ring { target; _ } -> o target
  | Isa.Brz { cond; _ } | Isa.Brnz { cond; _ } -> o cond
  | _ -> ()

(* Register defined by the TIMING closure, if any. *)
let timing_def (i : Isa.instr) =
  match i with
  | Isa.Alu { dst; _ }
  | Isa.Cmp { dst; _ }
  | Isa.Mov { dst; _ }
  | Isa.Sel { dst; _ }
  | Isa.Pid { dst; _ }
  | Isa.Npid { dst; _ }
  | Isa.Mkdesc { dst; _ }
  | Isa.Tile_unop { dst; _ }
  | Isa.Tile_binop { dst; _ }
  | Isa.Tile_cmp { dst; _ }
  | Isa.Tile_select { dst; _ }
  | Isa.Tile_cast { dst; _ }
  | Isa.Tile_splat { dst; _ }
  | Isa.Tile_iota { dst; _ }
  | Isa.Tile_bcast { dst; _ }
  | Isa.Tile_reshape { dst; _ }
  | Isa.Tile_reduce { dst; _ }
  | Isa.Tile_trans { dst; _ }
  | Isa.Ldg { dst; _ }
  | Isa.Lds { dst; _ }
  | Isa.Workq_pop { dst } -> Some dst
  | _ -> None

let atag_of_operand st (o : Isa.operand) =
  match o with
  | Isa.Imm _ -> Aint
  | Isa.Fimm _ -> Afloat
  | Isa.Reg r -> if r < Array.length st then st.(r) else Aint

(* Abstract transfer of one instruction's TIMING closure. *)
let timing_transfer st (i : Isa.instr) =
  let setd d v = if d < Array.length st then st.(d) <- v in
  match i with
  | Isa.Alu { dst; a; b; _ } ->
    let ta = atag_of_operand st a and tb = atag_of_operand st b in
    setd dst
      (match (ta, tb) with
      | Aint, Aint -> Aint
      | (Aint | Afloat), (Aint | Afloat) -> Afloat
      | _ -> Ascalar)
  | Isa.Cmp { dst; _ } -> setd dst Abool
  | Isa.Mov { dst; src } -> setd dst (atag_of_operand st src)
  | Isa.Sel { dst; a; b; _ } ->
    setd dst (ajoin (atag_of_operand st a) (atag_of_operand st b))
  | Isa.Pid { dst; _ } | Isa.Npid { dst; _ } | Isa.Workq_pop { dst } ->
    setd dst Aint
  | Isa.Mkdesc { dst; dtype; _ } -> setd dst (Adesc (Some dtype))
  | Isa.Tile_unop { dst; _ }
  | Isa.Tile_binop { dst; _ }
  | Isa.Tile_cmp { dst; _ }
  | Isa.Tile_select { dst; _ }
  | Isa.Tile_cast { dst; _ }
  | Isa.Tile_splat { dst; _ }
  | Isa.Tile_iota { dst; _ }
  | Isa.Tile_bcast { dst; _ }
  | Isa.Tile_reshape { dst; _ }
  | Isa.Tile_reduce { dst; _ }
  | Isa.Tile_trans { dst; _ }
  | Isa.Ldg { dst; _ }
  | Isa.Lds { dst; _ } ->
    (* Timing closures write [set_none] for tile results; [Aptr]
       covers the none tag. *)
    setd dst Aptr
  | _ -> ()

let scalar_ok = function
  | Aint | Afloat | Abool | Ascalar | Abot -> true
  | Aptr | Adesc _ | Aany -> false

let num_ok = function Aint | Afloat | Abot -> true | _ -> false
let ptr_arg_ok = function Aptr | Abot -> true | _ -> false

(* CFG successors of [pc] (blocked instructions resume at pc+1). *)
let succs_of (i : Isa.instr) pc =
  match i with
  | Isa.Bra { target } -> [ target ]
  | Isa.Brz { target; _ } | Isa.Brnz { target; _ } -> [ pc + 1; target ]
  | Isa.Exit -> []
  | _ -> [ pc + 1 ]

(* May the instruction retire inside an ongoing scheduler slot?
   [tc_single]/[tma_single]: this program has at most one stream
   touching the tensor-core / TMA pipe, so the shared [tc_free] /
   [tma_free] horizon and the associated stats floats are updated in
   this stream's program order regardless of slot boundaries. *)
let is_local ~tc_single ~tma_single (i : Isa.instr) =
  match i with
  | Isa.Nop | Isa.Alu _ | Isa.Cmp _ | Isa.Mov _ | Isa.Sel _ | Isa.Pid _
  | Isa.Npid _ | Isa.Mkdesc _ | Isa.Tile_unop _ | Isa.Tile_binop _
  | Isa.Tile_cmp _ | Isa.Tile_select _ | Isa.Tile_cast _ | Isa.Tile_splat _
  | Isa.Tile_iota _ | Isa.Tile_bcast _ | Isa.Tile_reshape _
  | Isa.Tile_reduce _ | Isa.Tile_trans _ | Isa.Ldg _ | Isa.Lds _ | Isa.Sts _
  | Isa.Stg _ | Isa.Wgmma_commit | Isa.Wgmma_wait _ | Isa.Workq_pop _
  | Isa.Bra _ | Isa.Brz _ | Isa.Brnz _ ->
    true
  | Isa.Wgmma _ -> tc_single
  | Isa.Cp_async { last; _ } -> (not last) && tma_single
  | Isa.Tma_load _ | Isa.Cp_wait_ring _ | Isa.Mbar_arrive _ | Isa.Mbar_wait _
  | Isa.Fence | Isa.Sync_reset | Isa.Exit ->
    false

(* Scratch context + warp group for probing the cost of closures that
   read nothing (Nop, tile ops, Ldg/Lds/Sts in timing mode): run the
   compiled closure once on a zeroed clock and read off the spend.
   Reusing the closure itself guarantees the replayed cost is the
   exact float the closure would have produced. *)
let make_probe (cfg : Config.t) role : wg =
  let ctx =
    {
      cfg;
      wgs = [||];
      pid = [| 0; 0; 0 |];
      num_programs = [| 1; 1; 1 |];
      mbars = [||];
      rings = [||];
      smem = [||];
      smem_base = [||];
      smem_slots = [||];
      smem_over = Hashtbl.create 1;
      pipes = { tma_free = 0.0; tc_free = 0.0 };
      fence_waiters = [];
      popped = [||];
      popped_len = 0;
      pop_global = (fun () -> -1);
      stats =
        {
          Sim.tc_busy = 0.0;
          tma_busy = 0.0;
          tma_bytes = 0.0;
          wgmma_count = 0;
          tma_count = 0;
          steps = 0;
        };
      mbar_waiters = [||];
      ring_waiters = [||];
      ready = { heap = [||]; n = 0 };
      mbar_wait = [||];
      ring_wait = [||];
      num_rings = 0;
      recorder = None;
    }
  in
  {
    index = 0;
    role;
    ctx;
    code = [||];
    lens = [||];
    local = Bytes.empty;
    pc = 0;
    c = { t = 0.0; busy = 0.0; wopen = -1.0 };
    planes = make_planes 8;
    state = Sim.Running;
    wgmma_groups = fring_create ();
    pop_round = 0;
    wg_pid = None;
    instret = 0;
    in_ready = false;
    buckets = Array.make Tawa_obs.Stall.num 0.0;
    cells = [||];
  }

let probe_cost w (c : code) =
  w.c.t <- 0.0;
  w.c.busy <- 0.0;
  w.pc <- 0;
  Array.fill w.buckets 0 (Array.length w.buckets) 0.0;
  c w;
  let b = ref b_compute in
  Array.iteri (fun i v -> if v <> 0.0 then b := i) w.buckets;
  (!b, w.c.t)

(* Cost of an elidable instruction as (bucket, cycles), or None when
   elision is unprovable (possible error, dynamic cost, side effect). *)
let elide_info ~(cfg : Config.t) ~coop ~probe st (i : Isa.instr)
    (c : code) : (int * float) option =
  let sc = cfg.Config.scalar_cycles in
  match i with
  | Isa.Alu { op; a; b; _ } ->
    let ta = atag_of_operand st a and tb = atag_of_operand st b in
    let div_ok =
      match op with
      | Op.Div | Op.Rem -> (
        (* The int path divides; by-zero is unreachable only when the
           divisor is a non-zero immediate or the float path is proven
           (either operand definitely float). *)
        match b with
        | Isa.Imm k -> k <> 0
        | Isa.Fimm _ -> true
        | Isa.Reg _ -> ta = Afloat || tb = Afloat)
      | _ -> true
    in
    if num_ok ta && num_ok tb && div_ok then Some (b_compute, sc) else None
  | Isa.Cmp { a; b; _ } ->
    if scalar_ok (atag_of_operand st a) && scalar_ok (atag_of_operand st b)
    then Some (b_compute, sc)
    else None
  | Isa.Mov _ -> Some (b_compute, sc)
  | Isa.Sel { cond; _ } ->
    if scalar_ok (atag_of_operand st cond) then Some (b_compute, sc) else None
  | Isa.Pid { axis; _ } | Isa.Npid { axis; _ } ->
    if axis >= 0 && axis < 3 then Some (b_compute, sc) else None
  | Isa.Mkdesc { ptr; _ } ->
    if ptr_arg_ok (atag_of_operand st ptr) then Some (b_compute, 20.0)
    else None
  | Isa.Nop | Isa.Tile_unop _ | Isa.Tile_binop _ | Isa.Tile_cmp _
  | Isa.Tile_select _ | Isa.Tile_cast _ | Isa.Tile_splat _ | Isa.Tile_iota _
  | Isa.Tile_bcast _ | Isa.Tile_reshape _ | Isa.Tile_reduce _
  | Isa.Tile_trans _ | Isa.Ldg _ | Isa.Lds _ | Isa.Sts _ ->
    Some (probe c)
  | Isa.Stg { desc; rows; cols; _ } -> (
    match atag_of_operand st desc with
    | Adesc (Some dt) ->
      (* Same float expression shape as the compiled closure. *)
      let bytes = Float.of_int (Sim.bytes_of ~rows ~cols dt) in
      Some
        ( b_tma,
          bytes /. cfg.Config.stg_bytes_per_cycle /. Float.of_int coop
          +. cfg.Config.stg_latency )
    | _ -> None)
  | _ -> None

(* Optimize one stream: returns (units, lens, local mask). *)
let optimize_stream ~(cfg : Config.t) ~coop ~role ~param_atags ~tc_single
    ~tma_single (instrs : Isa.instr array) (codes : code array) :
    code array * int array * Bytes.t =
  let n = Array.length instrs in
  let nregs = ref 64 in
  (* the reg universe: everything mentioned, plus the 64 param slots *)
  let seen r = nregs := max !nregs (r + 1) in
  Array.iter
    (fun i ->
      (match timing_def i with Some d -> seen d | None -> ());
      timing_uses i seen)
    instrs;
  let nregs = !nregs in
  (* ---- forward abstract interpretation of register tags ---- *)
  let ain = Array.init n (fun _ -> Array.make nregs Abot) in
  let reach = Array.make n false in
  if n > 0 then begin
    let entry = ain.(0) in
    Array.fill entry 0 nregs Aint;
    Array.iteri (fun r k -> if r < 64 && r < nregs then entry.(r) <- k) param_atags;
    reach.(0) <- true
  end;
  let tmp = Array.make nregs Abot in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = 0 to n - 1 do
      if reach.(pc) then begin
        Array.blit ain.(pc) 0 tmp 0 nregs;
        timing_transfer tmp instrs.(pc);
        List.iter
          (fun s ->
            if s >= 0 && s < n then
              if not reach.(s) then begin
                reach.(s) <- true;
                Array.blit tmp 0 ain.(s) 0 nregs;
                changed := true
              end
              else
                let st = ain.(s) in
                for r = 0 to nregs - 1 do
                  let j = ajoin st.(r) tmp.(r) in
                  if j <> st.(r) then begin
                    st.(r) <- j;
                    changed := true
                  end
                done)
          (succs_of instrs.(pc) pc)
      end
    done
  done;
  (* ---- provably-safe static costs (liveness-independent) ---- *)
  let probe_state = make_probe cfg role in
  let probe = probe_cost probe_state in
  let einfo =
    Array.init n (fun pc ->
        elide_info ~cfg ~coop ~probe ain.(pc) instrs.(pc) codes.(pc))
  in
  (* ---- backward liveness / elision fixpoint ---- *)
  let live_in = Array.init n (fun _ -> Bytes.make nregs '\000') in
  let elide = Array.make n false in
  let lout = Bytes.make nregs '\000' in
  let lchanged = ref true in
  while !lchanged do
    lchanged := false;
    for pc = n - 1 downto 0 do
      Bytes.fill lout 0 nregs '\000';
      List.iter
        (fun s ->
          if s >= 0 && s < n then
            let src = live_in.(s) in
            for r = 0 to nregs - 1 do
              if Bytes.get src r <> '\000' then Bytes.set lout r '\001'
            done)
        (succs_of instrs.(pc) pc);
      let e =
        einfo.(pc) <> None
        &&
        match timing_def instrs.(pc) with
        | Some d -> d >= nregs || Bytes.get lout d = '\000'
        | None -> true
      in
      elide.(pc) <- e;
      if not e then begin
        (match timing_def instrs.(pc) with
        | Some d when d < nregs -> Bytes.set lout d '\000'
        | _ -> ());
        timing_uses instrs.(pc) (fun r ->
            if r < nregs then Bytes.set lout r '\001')
      end;
      if Bytes.compare lout live_in.(pc) <> 0 then begin
        Bytes.blit lout 0 live_in.(pc) 0 nregs;
        lchanged := true
      end
    done
  done;
  (* Workq_pop has a queue side effect; never elide it even when its
     destination is dead (the pop order feeds wg_pid and the shared
     memoized round table). [elide_info] already returns None for it,
     as for every instruction with shared-state effects. *)
  (* ---- units: collapse elided runs into cost blocks ---- *)
  let btarget = Array.make (max 1 n) false in
  Array.iter
    (fun i ->
      match i with
      | Isa.Bra { target } | Isa.Brz { target; _ } | Isa.Brnz { target; _ } ->
        if target >= 0 && target < n then btarget.(target) <- true
      | _ -> ())
    instrs;
  let units = Array.copy codes in
  let lens = Array.make n 1 in
  let local = Bytes.make n '\000' in
  for pc = 0 to n - 1 do
    if elide.(pc) || is_local ~tc_single ~tma_single instrs.(pc) then
      Bytes.set local pc '\001'
  done;
  let pc = ref 0 in
  while !pc < n do
    if elide.(!pc) then begin
      let e = ref (!pc + 1) in
      while !e < n && elide.(!e) && not btarget.(!e) do
        incr e
      done;
      let len = !e - !pc in
      let pc_end = !e in
      (if len = 1 then begin
         match einfo.(!pc) with
         | Some (b, c) -> units.(!pc) <- (fun w -> spend w b c; w.pc <- pc_end)
         | None -> assert false
       end
       else begin
         let bks = Array.make len 0 and cs = Array.make len 0.0 in
         for i = 0 to len - 1 do
           match einfo.(!pc + i) with
           | Some (b, c) ->
             bks.(i) <- b;
             cs.(i) <- c
           | None -> assert false
         done;
         let pc0 = !pc in
         units.(!pc) <-
           (fun w ->
             (* Members occupy consecutive source pcs; step the pc in
                lockstep so each replayed cost lands in the member's own
                attribution cell, exactly as the reference charges it. *)
             for i = 0 to len - 1 do
               w.pc <- pc0 + i;
               spend w (Array.unsafe_get bks i) (Array.unsafe_get cs i)
             done;
             w.pc <- pc_end)
       end);
      lens.(!pc) <- len;
      pc := !e
    end
    else incr pc
  done;
  (* ---- superblocks: chain straight-line runs of local units ----
     A popped WG already retires consecutive local units without
     re-entering the ready heap; chaining composes such a run into ONE
     unit so the scheduler's per-unit bookkeeping (length lookup,
     budget check, stats, dispatch) is paid once per run. Member
     closures each advance [w.pc] themselves and execute back-to-back
     in program order, so the composition is observationally identical
     — except the step budget, which is charged for the whole chain up
     front (the same crossing-point argument as cost blocks: a budget
     that expires mid-chain reports exhaustion at the same retired
     count, and an error mid-chain discards the outcome anyway).

     A chain extends unit-by-unit along the static fall-through edge
     [pc + lens.(pc)] while the successor is local and not a branch
     target (branch targets must keep their own entry point; nothing
     else can jump into a chain's interior — the only way in is the
     layout predecessor, which is in the chain). Branches are local
     but set [pc] dynamically, so they terminate the chain that
     absorbs them — which is exactly what makes hot loop bodies
     (compute + back-edge) single-unit. Local units never block,
     finish, or self-enqueue, so state checks stay at chain end. *)
  let falls_through pc =
    match instrs.(pc) with
    | Isa.Bra _ | Isa.Brz _ | Isa.Brnz _ -> false
    | _ -> true
  in
  let hpc = ref 0 in
  while !hpc < n do
    let h = !hpc in
    let cur = ref h in
    if Bytes.get local h <> '\000' then begin
      let members = ref [ h ] and count = ref 1 in
      let fin = ref false in
      while not !fin do
        if not (falls_through !cur) then fin := true
        else begin
          let nx = !cur + lens.(!cur) in
          if nx < n && Bytes.get local nx <> '\000' && not btarget.(nx) then begin
            members := nx :: !members;
            incr count;
            cur := nx
          end
          else fin := true
        end
      done;
      if !count >= 2 then begin
        let mems = Array.of_list (List.rev !members) in
        let total = Array.fold_left (fun a m -> a + lens.(m)) 0 mems in
        let cs = Array.map (fun m -> units.(m)) mems in
        (units.(h) <-
           (match cs with
           | [| c0; c1 |] ->
             fun w ->
               c0 w;
               c1 w
           | [| c0; c1; c2 |] ->
             fun w ->
               c0 w;
               c1 w;
               c2 w
           | [| c0; c1; c2; c3 |] ->
             fun w ->
               c0 w;
               c1 w;
               c2 w;
               c3 w
           | _ ->
             fun w ->
               for i = 0 to Array.length cs - 1 do
                 (Array.unsafe_get cs i) w
               done));
        lens.(h) <- total
      end
    end;
    hpc := !cur + (if !cur = h then lens.(h) else lens.(!cur))
  done;
  (units, lens, local)

(* --------------------------- decoding ----------------------------- *)

type t = {
  d_cfg : Config.t;
  d_program : Isa.program;
  d_codes : code array array; (* per stream, per pc *)
  d_units : code array array;
      (* timing-optimized streams (cost blocks, elided writes); aliases
         [d_codes] when optimization is off *)
  d_lens : int array array; (* instructions retired per unit *)
  d_local : Bytes.t array; (* slot-fusable mask per unit *)
  d_ones : int array array; (* unoptimized unit metadata, for fallback *)
  d_zeros : Bytes.t array;
  d_opt : bool; (* were the streams optimized at decode time? *)
  d_pkinds : pkind array;
      (* parameter-kind assumptions the optimization proved safety
         against; launches that do not conform run [d_codes] *)
  d_roles : Op.wg_role array;
  d_coops : int array;
  d_smem_base : int array; (* per alloc id *)
  d_smem_slots : int array;
  d_smem_total : int;
  d_reset_mask : bool array; (* which mbarriers Sync_reset reinitializes *)
}

(* [Sync_reset] needs the program-level resettable mask and the full
   barrier array; compile it as a context-level closure after the
   per-instruction pass (the mask is shared across streams). *)
let decode ~(cfg : Config.t) (program : Isa.program) : t =
  let reset_mask =
    Array.init program.Isa.num_mbarriers (fun i ->
        i >= Array.length program.Isa.mbar_resettable
        || program.Isa.mbar_resettable.(i))
  in
  let codes =
    Array.of_list
      (List.map
         (fun (s : Isa.stream) ->
           Array.map
             (fun instr ->
               match instr with
               | Isa.Sync_reset ->
                 let mc = cfg.Config.mbar_cycles in
                 fun w ->
                   let ctx = w.ctx in
                   Array.iteri
                     (fun i b ->
                       if reset_mask.(i) then begin
                         Mbarrier.reset b;
                         match ctx.recorder with
                         | Some r ->
                           Tawa_obs.Prof.record_reset r ~chan:i ~time:w.c.t
                         | None -> ()
                       end)
                     ctx.mbars;
                   Array.iteri
                     (fun i b ->
                       Mbarrier.reset b;
                       match ctx.recorder with
                       | Some r ->
                         Tawa_obs.Prof.record_reset r ~chan:(ring_chan ctx i)
                           ~time:w.c.t
                       | None -> ())
                     ctx.rings;
                   spend w b_mbar mc;
                   w.pc <- w.pc + 1
               | _ -> compile_instr ~cfg ~coop:s.Isa.coop instr)
             s.Isa.instrs)
         program.Isa.streams)
  in
  let streams = Array.of_list program.Isa.streams in
  let instrs = Array.map (fun (s : Isa.stream) -> s.Isa.instrs) streams in
  let ones = Array.map (fun is -> Array.make (Array.length is) 1) instrs in
  let zeros =
    Array.map (fun is -> Bytes.make (max 1 (Array.length is)) '\000') instrs
  in
  let pkinds =
    Array.of_list (List.map pkind_of_ty program.Isa.param_tys)
  in
  let opt = (not (Config.is_functional cfg)) && opts_on () in
  let units, lens, local =
    if not opt then (codes, ones, zeros)
    else begin
      (* Pipe ownership: with at most one stream touching a shared
         pipe, its horizon/stats updates stay in that stream's program
         order under fusion. *)
      let count pred =
        Array.fold_left
          (fun n is -> if Array.exists pred is then n + 1 else n)
          0 instrs
      in
      let tc_single = count (function Isa.Wgmma _ -> true | _ -> false) <= 1 in
      let tma_single =
        count (function Isa.Tma_load _ | Isa.Cp_async _ -> true | _ -> false)
        <= 1
      in
      let param_atags = Array.map atag_of_pkind pkinds in
      let units = Array.make (Array.length streams) [||] in
      let lens = Array.make (Array.length streams) [||] in
      let local = Array.make (Array.length streams) Bytes.empty in
      Array.iteri
        (fun i (s : Isa.stream) ->
          let u, l, loc =
            optimize_stream ~cfg ~coop:s.Isa.coop ~role:s.Isa.role
              ~param_atags ~tc_single ~tma_single instrs.(i) codes.(i)
          in
          units.(i) <- u;
          lens.(i) <- l;
          local.(i) <- loc)
        streams;
      (units, lens, local)
    end
  in
  let max_alloc =
    List.fold_left (fun m (a : Isa.alloc) -> max m a.Isa.alloc_id) (-1)
      program.Isa.allocs
  in
  let slots = Array.make (max_alloc + 1) 0 in
  List.iter
    (fun (a : Isa.alloc) -> if a.Isa.alloc_id >= 0 then slots.(a.Isa.alloc_id) <- a.Isa.slots)
    program.Isa.allocs;
  let base = Array.make (max_alloc + 1) 0 in
  let acc = ref 0 in
  for i = 0 to max_alloc do
    base.(i) <- !acc;
    acc := !acc + slots.(i)
  done;
  {
    d_cfg = cfg;
    d_program = program;
    d_codes = codes;
    d_units = units;
    d_lens = lens;
    d_local = local;
    d_ones = ones;
    d_zeros = zeros;
    d_opt = opt;
    d_pkinds = pkinds;
    d_roles =
      Array.of_list (List.map (fun (s : Isa.stream) -> s.Isa.role) program.Isa.streams);
    d_coops =
      Array.of_list (List.map (fun (s : Isa.stream) -> s.Isa.coop) program.Isa.streams);
    d_smem_base = base;
    d_smem_slots = slots;
    d_smem_total = !acc;
    d_reset_mask = reset_mask;
  }

(* ------------------------ context creation ------------------------ *)

let make_ctx ?recorder (d : t) ~(params : Sim.rt list)
    ~(num_programs : int array) ~(pid : int array)
    ~(pop_global : unit -> int) : ectx =
  let program = d.d_program in
  if List.length params <> List.length program.Isa.param_tys then
    err "sim: parameter arity mismatch (%d vs %d)" (List.length params)
      (List.length program.Isa.param_tys);
  (* The timing optimization proved error-freedom against the
     parameter kinds implied by [param_tys] and 3-vector pid/grid
     arrays; a launch that binds anything else falls back to the
     unoptimized stream (bit-identical, just slower). *)
  let use_opt =
    d.d_opt
    && Array.length num_programs >= 3
    && Array.length pid >= 3
    && params_conform d.d_pkinds params
  in
  let ctx =
    {
      cfg = d.d_cfg;
      wgs = [||];
      pid;
      num_programs;
      mbars =
        Array.init program.Isa.num_mbarriers (fun i ->
            Mbarrier.create ~arrive_count:program.Isa.mbar_arrive_counts.(i));
      rings =
        Array.init (max 1 program.Isa.num_rings) (fun _ ->
            Mbarrier.create ~arrive_count:1);
      smem = Array.make (max 1 d.d_smem_total) None;
      smem_base = d.d_smem_base;
      smem_slots = d.d_smem_slots;
      smem_over = Hashtbl.create 8;
      pipes = { tma_free = 0.0; tc_free = 0.0 };
      fence_waiters = [];
      popped = Array.make 16 (-2);
      popped_len = 0;
      pop_global;
      stats =
        {
          Sim.tc_busy = 0.0;
          tma_busy = 0.0;
          tma_bytes = 0.0;
          wgmma_count = 0;
          tma_count = 0;
          steps = 0;
        };
      mbar_waiters = Array.make (max 1 program.Isa.num_mbarriers) [];
      ring_waiters = Array.make (max 1 program.Isa.num_rings) [];
      ready = { heap = [||]; n = 0 };
      mbar_wait = Array.make (max 1 program.Isa.num_mbarriers) 0.0;
      ring_wait = Array.make (max 1 program.Isa.num_rings) 0.0;
      num_rings = program.Isa.num_rings;
      recorder;
    }
  in
  let wgs =
    Array.mapi
      (fun i codes ->
        let planes = make_planes 64 in
        (* Kernel params preload registers 0..n-1 (capped at the
           reference file's initial 64 registers). *)
        List.iteri (fun r v -> if r < 64 then set_rt planes r v) params;
        {
          index = i;
          role = d.d_roles.(i);
          ctx;
          code = (if use_opt then d.d_units.(i) else codes);
          lens = (if use_opt then d.d_lens.(i) else d.d_ones.(i));
          local = (if use_opt then d.d_local.(i) else d.d_zeros.(i));
          pc = 0;
          c = { t = 0.0; busy = 0.0; wopen = -1.0 };
          planes;
          state = Sim.Running;
          wgmma_groups = fring_create ();
          pop_round = 0;
          wg_pid = None;
          instret = 0;
          in_ready = false;
          buckets = Array.make Tawa_obs.Stall.num 0.0;
          cells = Array.make (Array.length codes * Tawa_obs.Stall.num) 0.0;
        })
      d.d_codes
  in
  ctx.wgs <- wgs;
  Array.iteri (fun i b -> Mbarrier.set_notify b (fun bar -> wake_mbar ctx i bar)) ctx.mbars;
  Array.iteri (fun i b -> Mbarrier.set_notify b (fun ring -> wake_ring ctx i ring)) ctx.rings;
  ctx

(* ------------------- resource high-water marks -------------------- *)

(** Measured resident footprint of a finished context, the ground truth
    the static occupancy model ({!Tawa_analysis.Footprint}) is
    validated against. Registers are never retired by either engine, so
    a post-run scan of the tensor plane is the high-water mark of
    register-tile bytes — no hot-path instrumentation, preserving the
    bit-identity contract above. Registers [0..nparams-1] hold the
    launch parameters (whole global buffers bound as tensors), not
    kernel-allocated tiles, and are excluded. SMEM writes land only in
    functional mode, so the SMEM figure is meaningful there: every
    [Some] slot of the dense array counts its allocation's slot bytes,
    plus any out-of-range fallback tensors. *)
type hwm = {
  hwm_reg_bytes : int array;  (** per warp group (= per stream) *)
  hwm_smem_bytes : int;
}

let measure_hwm (d : t) (ctx : ectx) : hwm =
  let nparams = List.length d.d_program.Isa.param_tys in
  let tensor_bytes t = Tensor.numel t * Dtype.size_bytes (Tensor.dtype t) in
  let reg_bytes =
    Array.map
      (fun w ->
        let p = w.planes in
        let acc = ref 0 in
        for r = nparams to p.cap - 1 do
          if Bytes.get p.tags r = t_tensor then
            match p.objs.(r) with
            | Otensor t -> acc := !acc + tensor_bytes t
            | _ -> ()
        done;
        !acc)
      ctx.wgs
  in
  let smem = ref 0 in
  List.iter
    (fun (a : Isa.alloc) ->
      let base = ctx.smem_base.(a.Isa.alloc_id) in
      for s = 0 to a.Isa.slots - 1 do
        if ctx.smem.(base + s) <> None then smem := !smem + a.Isa.bytes_per_slot
      done)
    d.d_program.Isa.allocs;
  Hashtbl.iter (fun _ t -> smem := !smem + tensor_bytes t) ctx.smem_over;
  { hwm_reg_bytes = reg_bytes; hwm_smem_bytes = !smem }

(* ------------------------- profiling ------------------------------ *)

(* Stall/channel profile of a finished context; must agree exactly with
   [Sim.profile_of_cta] on the same program (the charging points above
   mirror the reference's). *)
let profile_of_ctx ~wall (ctx : ectx) : Sim.profile =
  let wg_prof (w : wg) =
    let b = Array.copy w.buckets in
    b.(Tawa_obs.Stall.idle) <- fmax 0.0 (wall -. w.c.t);
    let cells = Array.copy w.cells in
    (* Trailing idle lands on the instruction the WG finished on — same
       rule as [Sim.wg_profile], and the pc parks at Exit in both
       engines, so cells stay bit-identical. *)
    let o = (w.pc * Tawa_obs.Stall.num) + Tawa_obs.Stall.idle in
    if o >= 0 && o < Array.length cells then
      cells.(o) <- cells.(o) +. fmax 0.0 (wall -. w.c.t);
    {
      Sim.p_index = w.index;
      p_role = Op.role_to_string w.role;
      p_time = w.c.t;
      p_busy = w.c.busy;
      p_instret = w.instret;
      p_buckets = b;
      p_cells = cells;
    }
  in
  {
    Sim.wall;
    wg_profs = Array.map wg_prof ctx.wgs;
    chan_profs =
      Sim.chan_profiles ~mbars:ctx.mbars ~rings:ctx.rings
        ~num_rings:ctx.num_rings ~mbar_wait:ctx.mbar_wait
        ~ring_wait:ctx.ring_wait;
  }
