(** Dead-store and uninitialized-read lints, built on the dataflow
    framework ({!Dataflow}) and the use-def graph ({!Graph}).

    - {b dead-store}: a staging op ([Local_alloc], [Local_load],
      [Tma_load]) whose results no op reads. Canonicalize erases these
      in source kernels, so a surviving one means a pass (or a
      hand-built kernel) is moving data nobody consumes — pure SMEM
      bandwidth and latency waste.
    - {b uninit-read}: an operand with no definition anywhere in the
      kernel (dangling SSA — an [Error]), or whose definition cannot
      reach the use along any CFG path (a [Warning]; reaching-defs is
      may-reach, so loop-carried and branch-defined values do not
      false-positive). A kernel whose every use is in lexical scope of
      its unique definition cannot have either, so one scoped walk
      ({!all_uses_in_scope}) settles the common case and the CFG and
      the reaching fixpoint run only when it fails. *)

open Tawa_ir

let dead_stores (k : Kernel.t) : Diagnostic.t list =
  let graph = Graph.build k.Kernel.body in
  let out = ref [] in
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Local_alloc | Op.Local_load | Op.Tma_load ->
        if op.Op.results <> [] && not (Graph.op_used graph op) then
          out :=
            Diagnostic.warning ~check:"dead-store" ~op ~values:op.Op.results
              "%s stages data no op reads; the transfer and its SMEM/register \
               cost are pure waste"
              (Op.opcode_name op.Op.opcode)
            :: !out
      | _ -> ())
    k.Kernel.body;
  List.rev !out

(* The verifier's scoping rule, over exactly the values and regions
   {!Dataflow.Cfg.build} sees: kernel parameters, [For] body parameters,
   and results of earlier ops in the same or an enclosing block
   (results bind after the op's own regions; a region's definitions go
   out of scope when it ends). Each such definition has a CFG path to
   the use: head -> body for block parameters, the op chain for earlier
   results. So when every operand is in scope and no value is defined
   twice, no use is unreachable. Anything else (a dangling or later
   definition, a sibling region's value, parameters of [If]/
   [Warp_group] regions, which the CFG does not bind, an odd region
   shape) answers [false] and leaves the verdict to the solver. *)
let all_uses_in_scope (k : Kernel.t) : bool =
  let exception Out_of_scope in
  (* [true] while in scope, [false] once its region has ended. *)
  let defined : bool Value.Tbl.t = Value.Tbl.create 64 in
  let opened = ref [] in
  let define v =
    if Value.Tbl.mem defined v then raise Out_of_scope;
    Value.Tbl.add defined v true;
    opened := v :: !opened
  in
  let use v =
    match Value.Tbl.find_opt defined v with
    | Some true -> ()
    | _ -> raise Out_of_scope
  in
  let only_block (r : Op.region) =
    match r.Op.blocks with [ b ] -> b | _ -> raise Out_of_scope
  in
  let rec walk ops = List.iter walk_op ops
  and scoped params (b : Op.block) =
    let mark = !opened in
    List.iter define params;
    walk b.Op.ops;
    let rec close l =
      if l != mark then
        match l with
        | v :: rest ->
          Value.Tbl.replace defined v false;
          close rest
        | [] -> ()
    in
    close !opened;
    opened := mark
  and walk_op (op : Op.op) =
    List.iter use op.Op.operands;
    (match (op.Op.opcode, op.Op.regions) with
    | Op.For, [ r ] ->
      let body = only_block r in
      scoped body.Op.params body
    | Op.For, _ -> raise Out_of_scope
    | (Op.If | Op.Warp_group), regions ->
      List.iter (fun r -> scoped [] (only_block r)) regions
    | _ -> ());
    List.iter define op.Op.results
  in
  match
    List.iter define k.Kernel.params;
    match k.Kernel.body.Op.blocks with
    | [ b ] -> walk b.Op.ops
    | _ -> raise Out_of_scope
  with
  | () -> true
  | exception Out_of_scope -> false

(** The solver's evidence ({!Dataflow.unreachable_uses}) as
    diagnostics. *)
let diagnose (cfg : Dataflow.Cfg.t) (uses : Dataflow.use list) : Diagnostic.t list =
  List.map
    (fun (u : Dataflow.use) ->
      let op = Dataflow.Cfg.node_op (Dataflow.Cfg.node cfg u.Dataflow.use_node) in
      match u.Dataflow.def with
      | None ->
        Diagnostic.error ~check:"uninit-read" ?op ~values:[ u.Dataflow.value ]
          "operand %s has no definition in the kernel (dangling SSA value)"
          (Value.name u.Dataflow.value)
      | Some _ ->
        Diagnostic.warning ~check:"uninit-read" ?op ~values:[ u.Dataflow.value ]
          "no CFG path carries the definition of %s to this use"
          (Value.name u.Dataflow.value))
    uses

let uninit_reads (k : Kernel.t) : Diagnostic.t list =
  if all_uses_in_scope k then []
  else
    let cfg = Dataflow.Cfg.build k in
    diagnose cfg (Dataflow.unreachable_uses cfg (Dataflow.Reaching.run cfg))

let check (k : Kernel.t) : Diagnostic.t list = dead_stores k @ uninit_reads k
