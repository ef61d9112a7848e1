(** A reusable forward/backward dataflow framework over the Tawa IR.

    Two layers:

    - {b Abstract solver} ({!Solver}): a worklist fixpoint engine
      parameterized by a {!LATTICE} and a transfer function, running
      over plain integer-node graphs. IR-free, so property tests can
      exercise it on random CFGs without building kernels.
    - {b IR CFG} ({!Cfg}): flattens a structured kernel (single-block
      regions, [For]/[If]/[Warp_group]) into such a graph. Every
      structured op gets a {e head} node (evaluates operands, binds the
      body block's parameters) and a {e tail} node (binds the op's
      results), with edges modelling all executions: loop back-edges,
      zero-trip bypass, both branches, and every warp-group partition.
      Values get dense indices in order of first appearance, and every
      node carries its def/use masks over them.

    On top of the CFG the classic analyses are provided: {!Liveness}
    (backward, sets of live value indices), {!Reaching} (forward, sets
    of defining node ids — SSA form means there are no kills), and
    {!use_def} chains derived from the definition table. All facts are
    {!Bitset}s, so a transfer is a few word operations. *)

open Tawa_ir

(* -------------------------- dense bitsets ------------------------- *)

(** Finite sets of small non-negative ints (dense value indices or node
    ids), one bit each, packed into [int] words. A set is never mutated
    once returned, so results may share arrays with their arguments; a
    shorter array denotes the same set zero-extended, which makes
    [bottom = [||]] the empty set at every width. This is the solver's
    lattice: bottom = empty, join = union. *)
module Bitset = struct
  type t = int array

  let w = Sys.int_size
  let bottom : t = [||]

  let mem (s : t) i =
    let k = i / w in
    k < Array.length s && (s.(k) lsr (i mod w)) land 1 = 1

  let of_list (l : int list) : t =
    if List.exists (fun i -> i < 0) l then invalid_arg "Bitset.of_list: negative";
    let s = Array.make (List.fold_left (fun m i -> max m ((i / w) + 1)) 0 l) 0 in
    List.iter (fun i -> s.(i / w) <- s.(i / w) lor (1 lsl (i mod w))) l;
    s

  let add i (s : t) : t =
    if mem s i then s
    else begin
      let k = i / w in
      let r = Array.make (max (Array.length s) (k + 1)) 0 in
      Array.blit s 0 r 0 (Array.length s);
      r.(k) <- r.(k) lor (1 lsl (i mod w));
      r
    end

  (* [a] is a subset of [b]. *)
  let subset (a : t) (b : t) =
    let lb = Array.length b in
    let rec go k =
      k = Array.length a
      || (a.(k) land lnot (if k < lb then b.(k) else 0) = 0 && go (k + 1))
    in
    go 0

  let join (a : t) (b : t) : t =
    if subset a b then b
    else if subset b a then a
    else begin
      let la = Array.length a and lb = Array.length b in
      let r = Array.make (max la lb) 0 in
      for k = 0 to Array.length r - 1 do
        r.(k) <- (if k < la then a.(k) else 0) lor if k < lb then b.(k) else 0
      done;
      r
    end

  let equal a b = subset a b && subset b a

  (** [gen ∪ (x \ kill)]: the transfer shape of both analyses. *)
  let gen_kill ~(gen : t) ~(kill : t) (x : t) : t =
    let lg = Array.length gen and lk = Array.length kill and lx = Array.length x in
    let r = Array.make (max lg lx) 0 in
    for k = 0 to Array.length r - 1 do
      let xk = if k < lx then x.(k) else 0 in
      let kk = if k < lk then kill.(k) else 0 in
      r.(k) <- (if k < lg then gen.(k) else 0) lor (xk land lnot kk)
    done;
    r

  (** Fold over the members in increasing order. *)
  let fold f (s : t) acc =
    let acc = ref acc in
    for k = 0 to Array.length s - 1 do
      let word = ref s.(k) and i = ref (k * w) in
      while !word <> 0 do
        if !word land 0xff = 0 then begin
          word := !word lsr 8;
          i := !i + 8
        end
        else begin
          if !word land 1 <> 0 then acc := f !i !acc;
          word := !word lsr 1;
          incr i
        end
      done
    done;
    !acc

  let elements s = List.rev (fold List.cons s [])
end

(* ------------------------- abstract solver ------------------------ *)

module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val equal : t -> t -> bool
end

type direction = Forward | Backward

(** A plain graph for the solver: [succs.(n)] lists the control-flow
    successors of node [n]. Nodes are [0 .. Array.length succs - 1]. *)
type graph = { succs : int array array }

let preds_of (g : graph) : int array array =
  let n = Array.length g.succs in
  let preds = Array.make n [] in
  Array.iteri
    (fun u sucs -> Array.iter (fun v -> preds.(v) <- u :: preds.(v)) sucs)
    g.succs;
  Array.map (fun l -> Array.of_list (List.rev l)) preds

module Solver (L : LATTICE) = struct
  type result = {
    input : L.t array;  (** fact at node entry (w.r.t. [direction]) *)
    output : L.t array;  (** fact at node exit (w.r.t. [direction]) *)
  }

  let join_over (output : L.t array) (into : int array) =
    let acc = ref L.bottom in
    for j = 0 to Array.length into - 1 do
      acc := L.join !acc output.(into.(j))
    done;
    !acc

  (** Iterate [output n = transfer n (join of neighbour outputs)] to a
      fixpoint. For [Forward] the joined neighbours are predecessors;
      for [Backward], successors. Monotone transfer functions over a
      finite-height lattice terminate; the worklist revisits a node
      only when one of its inputs changed. The worklist is a FIFO ring
      of [n] slots (a node is queued at most once), seeded in node
      order for [Forward] and in reverse for [Backward]; the order
      changes the work done, never the fixpoint. *)
  let solve ~(direction : direction) ~(graph : graph)
      ~(transfer : int -> L.t -> L.t) () : result =
    let n = Array.length graph.succs in
    let preds = preds_of graph in
    let into, out_of =
      match direction with
      | Forward -> (preds, graph.succs)
      | Backward -> (graph.succs, preds)
    in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    let ring =
      Array.init n (fun i -> match direction with Forward -> i | Backward -> n - 1 - i)
    in
    let queued = Array.make n true in
    let head = ref 0 and len = ref n in
    while !len > 0 do
      let u = ring.(!head) in
      head := if !head + 1 = n then 0 else !head + 1;
      decr len;
      queued.(u) <- false;
      let inp = join_over output into.(u) in
      input.(u) <- inp;
      let out = transfer u inp in
      if not (L.equal out output.(u)) then begin
        output.(u) <- out;
        Array.iter
          (fun v ->
            if not queued.(v) then begin
              queued.(v) <- true;
              ring.((!head + !len) mod n) <- v;
              incr len
            end)
          out_of.(u)
      end
    done;
    { input; output }

  (** Naive O(n^2)-rounds reference: recompute every node each round
      until nothing changes. Used by the property suite as an oracle
      for {!solve}. *)
  let solve_naive ~(direction : direction) ~(graph : graph)
      ~(transfer : int -> L.t -> L.t) () : result =
    let n = Array.length graph.succs in
    let preds = preds_of graph in
    let into =
      match direction with Forward -> preds | Backward -> graph.succs
    in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to n - 1 do
        let inp = join_over output into.(u) in
        input.(u) <- inp;
        let out = transfer u inp in
        if not (L.equal out output.(u)) then begin
          output.(u) <- out;
          changed := true
        end
      done
    done;
    { input; output }
end

module Set_solver = Solver (Bitset)

(* ----------------------------- IR CFG ----------------------------- *)

module Cfg = struct
  type node_kind =
    | Entry  (** virtual kernel entry; defines the kernel parameters *)
    | Plain of Op.op  (** a region-free op *)
    | Head of Op.op  (** structured op: operands read, block params bound *)
    | Tail of Op.op  (** structured op: results bound *)

  type node = {
    id : int;
    kind : node_kind;
    defs : Value.t list;
    uses : Value.t list;
    def_set : Bitset.t;  (** dense indices of [defs] *)
    use_set : Bitset.t;  (** dense indices of [uses] *)
    partition : int;  (** warp-group partition index; -1 = outside *)
    mutable succs : int list;  (** reverse-accumulated during build *)
  }

  type t = {
    kernel : Kernel.t;
    nodes : node array;
    graph : graph;
    values : Value.t array;  (** dense index -> value *)
    index : int Value.Tbl.t;  (** value -> dense index *)
    def_of : int array;  (** dense index -> defining node, -1 if none *)
  }

  let node_op n =
    match n.kind with Entry -> None | Plain o | Head o | Tail o -> Some o

  (** Stable oid for sorting/diagnostics: 0 for the entry node. *)
  let node_oid n = match node_op n with None -> 0 | Some o -> o.Op.oid

  let build (k : Kernel.t) : t =
    let nodes = ref [] in
    let count = ref 0 in
    let index = Value.Tbl.create 64 in
    let values = ref [] in
    let nvalues = ref 0 in
    let mask vs =
      Bitset.of_list
        (List.map
           (fun v ->
             match Value.Tbl.find_opt index v with
             | Some i -> i
             | None ->
               let i = !nvalues in
               Value.Tbl.add index v i;
               values := v :: !values;
               incr nvalues;
               i)
           vs)
    in
    let mk_node ?(defs = []) ?(uses = []) ~partition kind =
      let def_set = mask defs in
      let use_set = mask uses in
      let n = { id = !count; kind; defs; uses; def_set; use_set; partition; succs = [] } in
      incr count;
      nodes := n :: !nodes;
      n
    in
    let edge a b = a.succs <- b.id :: a.succs in
    (* Build the subgraph of [block] with a given entry predecessor;
       returns the node control falls out of. Blocks are op lists
       executed in order, so each op's subgraph chains onto the
       previous exit. *)
    let rec build_block ~partition (prev : node) (b : Op.block) : node =
      List.fold_left (fun prev op -> build_op ~partition prev op) prev b.Op.ops
    and build_op ~partition (prev : node) (op : Op.op) : node =
      match op.Op.opcode with
      | Op.For ->
        (* head: reads (lb, ub, step, inits...), binds body params
           (iv, iters...). Executions: prev -> head -> body -> head
           (back-edge, rebinding iters from the Yield) and the
           zero-trip bypass head -> tail. tail binds the op results. *)
        let body = Op.entry_block (List.hd op.Op.regions) in
        let head =
          mk_node ~defs:body.Op.params ~uses:op.Op.operands ~partition (Head op)
        in
        edge prev head;
        let body_exit = build_block ~partition head body in
        edge body_exit head;
        let tail = mk_node ~defs:op.Op.results ~partition (Tail op) in
        edge head tail;
        tail
      | Op.If ->
        let head = mk_node ~uses:op.Op.operands ~partition (Head op) in
        edge prev head;
        let tail = mk_node ~defs:op.Op.results ~partition (Tail op) in
        (match op.Op.regions with
        | [] -> edge head tail
        | regions ->
          List.iter
            (fun r ->
              let exit = build_block ~partition head (Op.entry_block r) in
              edge exit tail)
            regions;
          (* A missing else-region means the no-op path exists too. *)
          if List.length regions < 2 then edge head tail);
        tail
      | Op.Warp_group ->
        (* All partitions execute concurrently; for dataflow purposes
           each is a path from head to tail. Partition index is the
           region's position, matching {!Model.site.partition}. *)
        let head = mk_node ~uses:op.Op.operands ~partition (Head op) in
        edge prev head;
        let tail = mk_node ~defs:op.Op.results ~partition (Tail op) in
        List.iteri
          (fun i r ->
            let exit = build_block ~partition:i head (Op.entry_block r) in
            edge exit tail)
          op.Op.regions;
        if op.Op.regions = [] then edge head tail;
        tail
      | _ ->
        let n =
          mk_node ~defs:op.Op.results ~uses:op.Op.operands ~partition (Plain op)
        in
        edge prev n;
        n
    in
    let entry = mk_node ~defs:k.Kernel.params ~partition:(-1) Entry in
    let _exit = build_block ~partition:(-1) entry (Kernel.entry k) in
    (* Ids were handed out in order, so the reversed list is sorted. *)
    let nodes = Array.of_list (List.rev !nodes) in
    let graph =
      { succs = Array.map (fun n -> Array.of_list (List.rev n.succs)) nodes }
    in
    let def_of = Array.make !nvalues (-1) in
    Array.iter
      (fun n -> List.iter (fun v -> def_of.(Value.Tbl.find index v) <- n.id) n.defs)
      nodes;
    { kernel = k; nodes; graph; values = Array.of_list (List.rev !values); index; def_of }

  let num_nodes t = Array.length t.nodes
  let node t i = t.nodes.(i)
  let value t i = t.values.(i)

  let defining_node t v =
    match Value.Tbl.find_opt t.index v with
    | Some i when t.def_of.(i) >= 0 -> Some t.def_of.(i)
    | _ -> None
end

(* ---------------------------- liveness ---------------------------- *)

module Liveness = struct
  type t = {
    cfg : Cfg.t;
    live_in : Bitset.t array;  (** dense value indices live before each node *)
    live_out : Bitset.t array;  (** dense value indices live after each node *)
  }

  let transfer (cfg : Cfg.t) u (out : Bitset.t) =
    let n = cfg.Cfg.nodes.(u) in
    Bitset.gen_kill ~gen:n.Cfg.use_set ~kill:n.Cfg.def_set out

  let run (cfg : Cfg.t) : t =
    let r =
      Set_solver.solve ~direction:Backward ~graph:cfg.Cfg.graph
        ~transfer:(transfer cfg) ()
    in
    (* Backward: solver "input" is the join over successors = live-out;
       "output" is the transferred fact = live-in. *)
    { cfg; live_in = r.Set_solver.output; live_out = r.Set_solver.input }

  let live_in t i = t.live_in.(i)
  let live_out t i = t.live_out.(i)
end

(* -------------------------- reaching defs ------------------------- *)

module Reaching = struct
  type t = {
    cfg : Cfg.t;
    reach_in : Bitset.t array;  (** node ids whose defs reach entry *)
    reach_out : Bitset.t array;
  }

  (* SSA: every value has one def, so there are no kills; a node's
     contribution is itself when it defines anything. *)
  let transfer (cfg : Cfg.t) u (inp : Bitset.t) =
    if cfg.Cfg.nodes.(u).Cfg.defs = [] then inp else Bitset.add u inp

  let run (cfg : Cfg.t) : t =
    let r =
      Set_solver.solve ~direction:Forward ~graph:cfg.Cfg.graph
        ~transfer:(transfer cfg) ()
    in
    { cfg; reach_in = r.Set_solver.input; reach_out = r.Set_solver.output }

  let reach_in t i = t.reach_in.(i)
  let reach_out t i = t.reach_out.(i)
end

(* -------------------------- use-def chains ------------------------ *)

(** One use site: the node, the value read, and the defining node (or
    [None] for a dangling operand — a value no node defines). *)
type use = { use_node : int; value : Value.t; def : int option }

let use_def (cfg : Cfg.t) : use list =
  Array.to_list cfg.Cfg.nodes
  |> List.concat_map (fun n ->
         List.map
           (fun v ->
             {
               use_node = n.Cfg.id;
               value = v;
               def = Cfg.defining_node cfg v;
             })
           n.Cfg.uses)

(** Uses whose definition does not exist or cannot reach them along any
    path: the static "uninitialized read" evidence. *)
let unreachable_uses (cfg : Cfg.t) (r : Reaching.t) : use list =
  use_def cfg
  |> List.filter (fun u ->
         match u.def with
         | None -> true
         | Some d ->
           (* A def in the same node (head binding its own params) is
              visible to the node's uses evaluated at the head. *)
           d <> u.use_node
           && not (Bitset.mem (Reaching.reach_in r u.use_node) d))
