(** Static register-tile and SMEM footprint model.

    Mirrors {!Tawa_machine.Codegen.lower}'s allocation decisions over
    the IR without running it, so the result is comparable to the
    decode engine's measured high-water marks:

    - {b Registers}: codegen binds a fresh register to every tile
      result ([def_reg]) except results that alias shared memory (aref
      gets, staged allocs, scratch TMA loads, transposed SMEM views)
      or an existing accumulator (Dot/Wgmma results alias their [acc]
      operand; [For] results alias the iteration registers). An SMEM-
      bound value read by a CUDA-core op is pulled into a {e fresh}
      register at every use site ([tile_operand] emits an [Lds] per
      use), except WGMMA [a]/[b] operands, which read shared memory
      directly. The engine never retires tile registers, so the sum of
      these bindings is a sound upper bound on the measured resident
      tensor bytes per warp group.
    - {b SMEM}: aref rings ([depth] slots per payload tile) plus one
      buffer per [Local_alloc] and per non-deferred [Tma_load]
      (deferred = every user is an [Aref_put]; those write ring slots
      and allocate nothing). Top-level ops are re-lowered into every
      stream, so their scratch buffers replicate per warp group.

    The per-partition split follows codegen's [region_specs]: stream
    [i] is top-level ops plus warp-group region [i] (one consumer
    stream when the kernel is not warp-specialized). *)

open Tawa_ir
open Tawa_machine

type part = {
  index : int;  (** stream index, matching [Isa.program.streams] order *)
  role : Op.wg_role;
  coop : int;  (** warp groups cooperating on this stream *)
  tensor_bytes : int;  (** resident register-tile bytes (upper bound) *)
  scalar_regs : int;  (** 32-bit scalar + descriptor registers *)
  max_live_bytes : int;  (** liveness max-live tile bytes (pressure) *)
}

type smem_item = {
  kind : string;  (** "aref ring", "local_alloc" or "tma scratch" *)
  op_id : int;  (** [oid] of the op that owns the buffer *)
  item_bytes : int;  (** one copy *)
  copies : int;  (** stream replication factor *)
}

type t = {
  parts : part list;
  smem_items : smem_item list;
  smem_bytes : int;  (** total static SMEM, all copies *)
}

(** ["<kind> {id = <op_id>}"], matching [Printer.kernel_to_string ~ids:true]. *)
let label it = Printf.sprintf "%s {id = %d}" it.kind it.op_id

let bytes_of v = Types.size_bytes (Value.ty v)
let is_tile v = Types.is_tensor (Value.ty v)

(* ---------------------- register-tile model ----------------------- *)

(* One accumulator per stream walk. [smem] is the set of values bound
   to SMEM views rather than registers. *)
type acc = {
  mutable tbytes : int;
  mutable sregs : int;
  smem : unit Value.Tbl.t;
}

let smem_bound a v = Value.Tbl.mem a.smem v
let bind_smem a v = Value.Tbl.replace a.smem v ()
let add_tile a v = a.tbytes <- a.tbytes + bytes_of v
let add_scalar a = a.sregs <- a.sregs + 1

(* [tile_operand]: an SMEM-bound tile read by a CUDA-core op costs a
   fresh register at this use site. *)
let pull a v = if smem_bound a v && is_tile v then a.tbytes <- a.tbytes + bytes_of v

let def a v =
  if is_tile v then add_tile a v
  else
    match Value.ty v with
    | Types.TScalar _ | Types.TPtr _ | Types.TTensorDesc _ -> add_scalar a
    | _ -> ()

let rec walk_op (graph : Graph.t) (a : acc) (op : Op.op) =
  match op.Op.opcode with
  | Op.Aref_create _ | Op.Warp_group -> ()
  | Op.Aref_get ->
    (* Results are views of the ring slot; no registers. *)
    List.iter (bind_smem a) op.Op.results
  | Op.Aref_put | Op.Aref_consumed -> ()
  | Op.Tma_load ->
    let deferred =
      match op.Op.results with
      | [ r ] -> (
        match Graph.users graph r with
        | [] -> false
        | us -> List.for_all (fun u -> u.Op.opcode = Op.Aref_put) us)
      | _ -> false
    in
    if not deferred then begin
      (* Scratch SMEM buffer + a monotonic phase counter register. *)
      add_scalar a;
      List.iter (bind_smem a) op.Op.results
    end
  | Op.Local_alloc ->
    List.iter (pull a) op.Op.operands;
    List.iter (bind_smem a) op.Op.results
  | Op.Local_load ->
    (* SMEM source: Lds into a fresh tile register. Register source:
       pure alias, no new binding. *)
    let from_smem = List.exists (smem_bound a) op.Op.operands in
    if from_smem then List.iter (def a) op.Op.results
  | Op.Trans ->
    (* SMEM views transpose for free (descriptor stride flip); the
       result remains SMEM-bound. Register tiles pay a fresh tile. *)
    let from_smem = List.exists (smem_bound a) op.Op.operands in
    if from_smem then List.iter (bind_smem a) op.Op.results
    else List.iter (def a) op.Op.results
  | Op.Dot | Op.Wgmma_issue ->
    (* a/b read SMEM directly (wgmma_src); the result aliases acc. *)
    ()
  | Op.Wgmma_wait _ | Op.Yield ->
    List.iter (pull a) op.Op.operands
  | Op.Tma_store ->
    List.iter (pull a) op.Op.operands
  | Op.For ->
    (* lb/ub/step/inits are read (SMEM inits are pulled); the induction
       variable and each tile iteration argument get fresh registers.
       Results alias the iteration registers. *)
    List.iter (pull a) op.Op.operands;
    (match op.Op.regions with
    | r :: _ ->
      let blk = Op.entry_block r in
      (match blk.Op.params with
      | iv :: iters ->
        ignore iv;
        add_scalar a;
        List.iter (def a) iters
      | [] -> ());
      List.iter (walk_op graph a) blk.Op.ops
    | [] -> ())
  | Op.If ->
    List.iter (pull a) op.Op.operands;
    List.iter (def a) op.Op.results;
    List.iter
      (fun r -> List.iter (walk_op graph a) (Op.entry_block r).Op.ops)
      op.Op.regions
  | _ ->
    (* CUDA-core tile/scalar ops: pull SMEM operands, fresh result. *)
    List.iter (pull a) op.Op.operands;
    List.iter (def a) op.Op.results

(* ---------------------- liveness max pressure --------------------- *)

(* Max over CFG nodes of the live-in tile bytes, per partition; the
   informational "how much must be simultaneously alive" figure, as
   opposed to the resident model above (codegen never frees). Slot
   [p + 1] holds partition [p] (slot 0: outside any warp group). *)
let max_live (k : Kernel.t) : int array =
  let cfg = Dataflow.Cfg.build k in
  let live = Dataflow.Liveness.run cfg in
  let bytes =
    Array.map (fun v -> if is_tile v then bytes_of v else 0) cfg.Dataflow.Cfg.values
  in
  let nodes = cfg.Dataflow.Cfg.nodes in
  let top = Array.fold_left (fun m n -> max m n.Dataflow.Cfg.partition) (-1) nodes in
  let best = Array.make (top + 2) 0 in
  let add i acc = acc + bytes.(i) in
  Array.iteri
    (fun i n ->
      let b = Dataflow.Bitset.fold add (Dataflow.Liveness.live_in live i) 0 in
      let p = n.Dataflow.Cfg.partition + 1 in
      if b > best.(p) then best.(p) <- b)
    nodes;
  best

(* --------------------------- SMEM model --------------------------- *)

(* Items name their op by its pre-order position in [k.body], not its
   [oid]: the result is then a function of the kernel structure alone,
   as the memo in {!compute} requires. *)
let smem_model (k : Kernel.t) (graph : Graph.t) ~(num_streams : int) :
    smem_item list =
  let items = ref [] in
  let pos = ref (-1) in
  let add kind bytes copies =
    if bytes > 0 then
      items := { kind; op_id = !pos; item_bytes = bytes; copies } :: !items
  in
  let top = Hashtbl.create 64 in
  List.iter
    (fun (op : Op.op) ->
      match op.Op.opcode with
      | Op.Warp_group -> ()
      | _ ->
        Hashtbl.replace top op.Op.oid ();
        List.iter
          (Op.iter_region (fun o -> Hashtbl.replace top o.Op.oid ()))
          op.Op.regions)
    (Kernel.entry k).Op.ops;
  let copies_of op = if Hashtbl.mem top op.Op.oid then num_streams else 1 in
  Op.iter_region
    (fun op ->
      incr pos;
      match op.Op.opcode with
      | Op.Aref_create depth ->
        let payload =
          match op.Op.results with
          | [ r ] -> (
            match Value.ty r with
            | Types.TAref { payload; _ } -> payload
            | _ -> [])
          | _ -> []
        in
        let slot = List.fold_left (fun s ty -> s + Types.size_bytes ty) 0 payload in
        add "aref ring" (depth * slot) 1
      | Op.Local_alloc ->
        let bytes =
          match op.Op.operands with v :: _ -> bytes_of v | [] -> 0
        in
        add "local_alloc" bytes (copies_of op)
      | Op.Tma_load ->
        let deferred =
          match op.Op.results with
          | [ r ] -> (
            match Graph.users graph r with
            | [] -> false
            | us -> List.for_all (fun u -> u.Op.opcode = Op.Aref_put) us)
          | _ -> false
        in
        if not deferred then
          let bytes =
            match op.Op.results with r :: _ -> bytes_of r | [] -> 0
          in
          add "tma scratch" bytes (copies_of op)
      | _ -> ())
    k.Kernel.body;
  List.rev !items

(* ----------------------------- driver ----------------------------- *)

(** Warp-group roles in region order, mirroring codegen's
    [region_specs]. *)
let stream_roles (k : Kernel.t) : Op.wg_role list =
  match Kernel.find_warp_group k with
  | None -> [ Op.Consumer ]
  | Some wgop ->
    let roles =
      match Op.attr_string wgop "roles" with
      | Some s -> String.split_on_char ',' s |> List.filter_map Op.role_of_string
      | None -> []
    in
    List.mapi
      (fun i _ -> try List.nth roles i with _ -> Op.Consumer)
      wgop.Op.regions

(** The unmemoized model. Its SMEM items name ops by pre-order
    position rather than [oid]; {!compute} maps them back. *)
let compute_structural (k : Kernel.t) : t =
  let graph = Graph.build k.Kernel.body in
  let roles = stream_roles k in
  let num_streams = List.length roles in
  let coop = Option.value (Kernel.attr_int k "num_consumer_wgs") ~default:1 in
  let wg = Kernel.find_warp_group k in
  let top_ops =
    List.filter
      (fun (o : Op.op) ->
        match o.Op.opcode with Op.Aref_create _ | Op.Warp_group -> false | _ -> true)
      (Kernel.entry k).Op.ops
  in
  let live_by_part = max_live k in
  let parts =
    List.mapi
      (fun i role ->
        let a = { tbytes = 0; sregs = 0; smem = Value.Tbl.create 32 } in
        (* Kernel params preload registers 0..n-1. *)
        List.iter (def a) k.Kernel.params;
        List.iter (walk_op graph a) top_ops;
        (match wg with
        | Some wgop ->
          let r = List.nth wgop.Op.regions i in
          List.iter (walk_op graph a) (Op.entry_block r).Op.ops
        | None -> ());
        let live_top = live_by_part.(0) in
        let live_part =
          if wg = None || i + 1 >= Array.length live_by_part then 0
          else live_by_part.(i + 1)
        in
        {
          index = i;
          role;
          coop = (if role = Op.Consumer then coop else 1);
          tensor_bytes = a.tbytes;
          scalar_regs = a.sregs;
          max_live_bytes = max live_top live_part;
        })
      roles
  in
  let smem_items = smem_model k graph ~num_streams in
  let smem_bytes =
    List.fold_left (fun s it -> s + (it.item_bytes * it.copies)) 0 smem_items
  in
  { parts; smem_items; smem_bytes }

(* The footprint is a pure function of the kernel structure, and sweeps
   size the same few hundred kernels thousands of times (every compile
   miss runs statcheck, then the caller asks again for its pruning
   verdict), so it is memoized on {!Progcache.kernel_fingerprint}. The
   memo follows the process-wide {!Progcache.set_enabled} switch and is
   emptied by [Flow.clear_cache]. *)
let memo : t Progcache.t = Progcache.create ~name:"statcheck.footprint" ()

(* Turn the structural op positions of the SMEM items into the [oid]s
   of [k]'s own ops. *)
let rebase (k : Kernel.t) (fp : t) : t =
  if fp.smem_items = [] then fp
  else
    let oids =
      Array.of_list (List.rev (Op.fold_region (fun acc o -> o.Op.oid :: acc) [] k.Kernel.body))
    in
    { fp with
      smem_items = List.map (fun it -> { it with op_id = oids.(it.op_id) }) fp.smem_items }

(** The static footprint of [k]; a kernel whose structure was sized
    before is served from {!memo}. *)
let compute (k : Kernel.t) : t =
  rebase k
    (if Progcache.is_enabled () then
       Progcache.find_or_add memo ~key:(Progcache.kernel_fingerprint k) (fun () ->
           compute_structural k)
     else compute_structural k)
