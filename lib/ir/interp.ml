(** Reference interpreter for the tile IR.

    Executes one kernel instance (one CTA / "program") sequentially.
    This gives the golden semantics that the warp-specialized, pipelined
    and lowered forms of a kernel are verified against.

    Warp-specialized kernels are also interpretable: cross-warp-group
    dataflow through arefs is acyclic (producers never wait on
    consumers' values), so regions of a [Warp_group] op are executed to
    completion in order with arefs modelled as unbounded FIFO queues.
    The bounded-depth, mbarrier-synchronized behaviour is exercised by
    the GPU simulator instead. *)

open Tawa_tensor

type rv =
  | RInt of int
  | RFloat of float
  | RBool of bool
  | RTensor of Tensor.t
  | RDesc of desc
  | RChan of rv list Queue.t  (** sequential model of an aref channel *)
  | RUnit

and desc = { buffer : Tensor.t; dtype : Dtype.t }

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let as_int = function
  | RInt i -> i
  | RBool b -> if b then 1 else 0
  | v -> error "expected int, got %s" (match v with RFloat _ -> "float" | RTensor _ -> "tensor" | _ -> "other")

let as_float = function
  | RFloat f -> f
  | RInt i -> Float.of_int i
  | _ -> error "expected float"

let as_bool = function
  | RBool b -> b
  | RInt i -> i <> 0
  | _ -> error "expected bool"

let as_tensor = function RTensor t -> t | _ -> error "expected tensor"
let as_desc = function RDesc d -> d | _ -> error "expected descriptor"
let as_chan = function RChan q -> q | _ -> error "expected aref channel"

(** Execution context for one program instance. *)
type ctx = {
  env : rv Value.Tbl.t;
  program_id : int array;   (* up to 3 grid axes *)
  num_programs : int array;
  mutable steps : int;      (* op-execution counter (fuel / stats) *)
  fuel : int;
}

let create_ctx ?(fuel = 100_000_000) ~program_id ~num_programs () =
  { env = Value.Tbl.create 256; program_id; num_programs; steps = 0; fuel }

let lookup ctx v =
  match Value.Tbl.find_opt ctx.env v with
  | Some rv -> rv
  | None -> error "unbound value %s" (Value.name v)

let bind ctx v rv = Value.Tbl.replace ctx.env v rv

let scalar_binop kind (x : rv) (y : rv) : rv =
  match (x, y) with
  | RInt a, RInt b ->
    RInt
      (match (kind : Op.binop) with
      | Add -> a + b | Sub -> a - b | Mul -> a * b
      | Div -> if b = 0 then error "division by zero" else a / b
      | Rem -> if b = 0 then error "modulo by zero" else a mod b
      | Min -> min a b | Max -> max a b
      | And -> a land b | Or -> a lor b | Xor -> a lxor b)
  | (RFloat _ | RInt _), (RFloat _ | RInt _) ->
    let a = as_float x and b = as_float y in
    RFloat
      (match kind with
      | Add -> a +. b | Sub -> a -. b | Mul -> a *. b | Div -> a /. b
      | Rem -> Float.rem a b | Min -> Float.min a b | Max -> Float.max a b
      | And | Or | Xor -> error "bitwise op on float")
  | RBool a, RBool b ->
    RBool
      (match kind with
      | And -> a && b | Or -> a || b | Xor -> a <> b
      | _ -> error "arith op on bool")
  | _ -> error "binop on non-scalars"

let float_binop kind a b =
  match (kind : Op.binop) with
  | Add -> a +. b | Sub -> a -. b | Mul -> a *. b | Div -> a /. b
  | Rem -> Float.rem a b | Min -> Float.min a b | Max -> Float.max a b
  | And -> Float.of_int (int_of_float a land int_of_float b)
  | Or -> Float.of_int (int_of_float a lor int_of_float b)
  | Xor -> Float.of_int (int_of_float a lxor int_of_float b)

let float_unop kind a =
  match (kind : Op.unop) with
  | Neg -> -.a
  | Exp -> Float.exp a
  | Exp2 -> Float.exp2 a
  | Log -> Float.log a
  | Log2 -> Float.log a /. Float.log 2.0
  | Sqrt -> Float.sqrt a
  | Rsqrt -> 1.0 /. Float.sqrt a
  | Abs -> Float.abs a
  | Not -> if a <> 0.0 then 0.0 else 1.0

let cmp_pred kind a b =
  match (kind : Op.cmp) with
  | Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

(* ------------------------- tile kernels ---------------------------
   First-order tile kernels, shared by all three executors: this
   interpreter, the reference engine ([Sim.step]) and the decoded
   engine's functional closures. Each kernel checks shapes once up
   front, dispatches on its opcode once per tile (not per element),
   computes in raw float space with unchecked indexing, and ends with
   one quantize pass through the result dtype ([Tensor.requantize]).
   Per element it performs the same IEEE operations, in the same order,
   as the scalar semantics above ([float_binop], [float_unop],
   [cmp_pred]) followed by a quantizing store, so every output is
   bit-identical to a closure-per-element loop; the tensor property
   suite pins each kernel against that oracle. *)

let[@inline] ( .%() ) (a : float array) i = Array.unsafe_get a i
let[@inline] ( .%()<- ) (a : float array) i (v : float) = Array.unsafe_set a i v

(* [Float.max]/[Float.min] with the ordered cases settled by one
   comparison each, so only equal operands (signed zeros) and NaN reach
   the library rule and its sign-bit calls; the result is the same for
   every input. *)
let[@inline] fmax x y = if y > x then y else if x > y then x else Float.max x y
let[@inline] fmin x y = if y < x then y else if x < y then x else Float.min x y

let check_shapes name (a : Tensor.t) (b : Tensor.t) =
  if not (Tensor.shape_equal a b) then
    invalid_arg (Printf.sprintf "Interp.%s: shape mismatch" name)

(** Elementwise [a op b]; the result has [a]'s dtype. *)
let tile_binop kind (a : Tensor.t) (b : Tensor.t) =
  check_shapes "tile_binop" a b;
  let out = Tensor.create ~dtype:a.Tensor.dtype a.Tensor.shape in
  let x = a.Tensor.data and y = b.Tensor.data and d = out.Tensor.data in
  let last = Array.length d - 1 in
  (match (kind : Op.binop) with
  | Add -> for i = 0 to last do d.%(i) <- x.%(i) +. y.%(i) done
  | Sub -> for i = 0 to last do d.%(i) <- x.%(i) -. y.%(i) done
  | Mul -> for i = 0 to last do d.%(i) <- x.%(i) *. y.%(i) done
  | Div -> for i = 0 to last do d.%(i) <- x.%(i) /. y.%(i) done
  | Rem -> for i = 0 to last do d.%(i) <- Float.rem x.%(i) y.%(i) done
  | Min -> for i = 0 to last do d.%(i) <- fmin x.%(i) y.%(i) done
  | Max -> for i = 0 to last do d.%(i) <- fmax x.%(i) y.%(i) done
  | And ->
    for i = 0 to last do
      d.%(i) <- Float.of_int (int_of_float x.%(i) land int_of_float y.%(i))
    done
  | Or ->
    for i = 0 to last do
      d.%(i) <- Float.of_int (int_of_float x.%(i) lor int_of_float y.%(i))
    done
  | Xor ->
    for i = 0 to last do
      d.%(i) <- Float.of_int (int_of_float x.%(i) lxor int_of_float y.%(i))
    done);
  Tensor.requantize out;
  out

(** Elementwise [op t], at [t]'s dtype. *)
let tile_unop kind (t : Tensor.t) =
  let out = Tensor.create ~dtype:t.Tensor.dtype t.Tensor.shape in
  let x = t.Tensor.data and d = out.Tensor.data in
  let last = Array.length d - 1 in
  (match (kind : Op.unop) with
  | Neg -> for i = 0 to last do d.%(i) <- -.x.%(i) done
  | Exp -> for i = 0 to last do d.%(i) <- Float.exp x.%(i) done
  | Exp2 -> for i = 0 to last do d.%(i) <- Float.exp2 x.%(i) done
  | Log -> for i = 0 to last do d.%(i) <- Float.log x.%(i) done
  | Log2 -> for i = 0 to last do d.%(i) <- Float.log x.%(i) /. Float.log 2.0 done
  | Sqrt -> for i = 0 to last do d.%(i) <- Float.sqrt x.%(i) done
  | Rsqrt -> for i = 0 to last do d.%(i) <- 1.0 /. Float.sqrt x.%(i) done
  | Abs -> for i = 0 to last do d.%(i) <- Float.abs x.%(i) done
  | Not -> for i = 0 to last do d.%(i) <- (if x.%(i) <> 0.0 then 0.0 else 1.0) done);
  Tensor.requantize out;
  out

(** Elementwise predicate into a fresh I1 mask (already quantized:
    every element is 0.0 or 1.0). *)
let tile_cmp kind (a : Tensor.t) (b : Tensor.t) =
  check_shapes "tile_cmp" a b;
  let out = Tensor.create ~dtype:Dtype.I1 a.Tensor.shape in
  let x = a.Tensor.data and y = b.Tensor.data and d = out.Tensor.data in
  let last = Array.length d - 1 in
  let[@inline] b2f c = if c then 1.0 else 0.0 in
  (match (kind : Op.cmp) with
  | Eq -> for i = 0 to last do d.%(i) <- b2f (x.%(i) = y.%(i)) done
  | Ne -> for i = 0 to last do d.%(i) <- b2f (x.%(i) <> y.%(i)) done
  | Lt -> for i = 0 to last do d.%(i) <- b2f (x.%(i) < y.%(i)) done
  | Le -> for i = 0 to last do d.%(i) <- b2f (x.%(i) <= y.%(i)) done
  | Gt -> for i = 0 to last do d.%(i) <- b2f (x.%(i) > y.%(i)) done
  | Ge -> for i = 0 to last do d.%(i) <- b2f (x.%(i) >= y.%(i)) done);
  out

(** Elementwise select: where [cond] is nonzero take [a], else [b]. The
    result has [a]'s dtype, so [b]'s elements requantize through it. *)
let tile_select (cond : Tensor.t) (a : Tensor.t) (b : Tensor.t) =
  check_shapes "tile_select" cond a;
  check_shapes "tile_select" a b;
  let out = Tensor.create ~dtype:a.Tensor.dtype a.Tensor.shape in
  let c = cond.Tensor.data and x = a.Tensor.data and y = b.Tensor.data in
  let d = out.Tensor.data in
  for i = 0 to Array.length d - 1 do
    d.%(i) <- (if c.%(i) <> 0.0 then x.%(i) else y.%(i))
  done;
  Tensor.requantize out;
  out

(** [0, 1, ..., n-1] as an I32 vector. *)
let tile_iota n =
  let out = Tensor.create ~dtype:Dtype.I32 [| n |] in
  let d = out.Tensor.data in
  for i = 0 to n - 1 do
    d.%(i) <- Float.of_int i
  done;
  out

(** Broadcast [t] to [shape]: same rank, every source dim either 1 or
    the target's. Same dtype, so elements copy raw. *)
let broadcast_to (t : Tensor.t) (shape : int list) =
  let target = Array.of_list shape in
  let src = t.Tensor.shape in
  let n = Array.length target in
  if
    Array.length src <> n
    || not (Array.for_all2 (fun s d -> s = 1 || s = d) src target)
  then invalid_arg "Interp.broadcast_to: incompatible shapes";
  let out = Tensor.create ~dtype:t.Tensor.dtype target in
  let s = t.Tensor.data and d = out.Tensor.data in
  if n = 2 then begin
    let rows = target.(0) and cols = target.(1) in
    if src.(1) <> 1 then
      (* Row broadcast (or none): each output row copies a source row. *)
      for i = 0 to rows - 1 do
        Array.blit s (if src.(0) = 1 then 0 else i * cols) d (i * cols) cols
      done
    else
      (* Column broadcast: output row [i] is source element [i] (or the
         single source element). *)
      for i = 0 to rows - 1 do
        Array.fill d (i * cols) cols s.(if src.(0) = 1 then 0 else i)
      done
  end
  else begin
    (* Any rank: decode each output index, with stride 0 on broadcast
       dims. *)
    let strides =
      Array.mapi (fun i st -> if src.(i) = 1 then 0 else st) t.Tensor.strides
    in
    for lin = 0 to Array.length d - 1 do
      let r = ref lin and off = ref 0 in
      for i = n - 1 downto 0 do
        off := !off + (!r mod target.(i) * strides.(i));
        r := !r / target.(i)
      done;
      d.%(lin) <- s.%(!off)
    done
  end;
  out

let reduce_tensor kind axis (t : Tensor.t) =
  let shape = Tensor.shape t in
  let n = Array.length shape in
  if axis < 0 || axis >= n then invalid_arg "Interp.reduce_tensor: bad axis";
  let out_shape =
    Array.of_list (List.filteri (fun i _ -> i <> axis) (Array.to_list shape))
  in
  let dtype = Tensor.dtype t in
  let init, f =
    match (kind : Op.reduce_kind) with
    | Red_max -> (Float.neg_infinity, Float.max)
    | Red_min -> (Float.infinity, Float.min)
    | Red_sum -> (0.0, ( +. ))
  in
  let out = Tensor.create ~dtype out_shape in
  if axis = n - 1 then begin
    (* Innermost axis: each output element folds one contiguous span,
       requantizing the accumulator at every step as folding through a
       stored output cell does. [Float.max]/[Float.min] return one of
       their (already quantized) arguments, so for them, and for F32
       sums, that requantize is the identity and the fold is a raw
       loop; only narrow-dtype sums round per step. *)
    let klen = shape.(axis) in
    let init = Tensor.quantize dtype init in
    let s = t.Tensor.data and d = out.Tensor.data in
    for g = 0 to Array.length d - 1 do
      let off = g * klen in
      let acc = ref init in
      (match kind with
      | Red_max -> for i = off to off + klen - 1 do acc := fmax !acc s.%(i) done
      | Red_min -> for i = off to off + klen - 1 do acc := fmin !acc s.%(i) done
      | Red_sum when dtype = Dtype.F32 ->
        for i = off to off + klen - 1 do acc := !acc +. s.%(i) done
      | Red_sum -> acc := Tensor.reduce_slice f ~init t ~off ~len:klen);
      d.%(g) <- !acc
    done
  end
  else begin
    (* Initialize, then fold over the input. *)
    for i = 0 to Tensor.numel out - 1 do
      Tensor.set_flat out i init
    done;
    let out_idx = Array.make (n - 1) 0 in
    Tensor.iteri
      (fun idx v ->
        let j = ref 0 in
        for i = 0 to n - 1 do
          if i <> axis then begin
            out_idx.(!j) <- idx.(i);
            incr j
          end
        done;
        Tensor.set out out_idx (f (Tensor.get out out_idx) v))
      t
  end;
  out

(** [acc + a b] at [acc]'s dtype, as a register-blocked micro-kernel:
    four output columns of a row accumulate in locals while [p] walks
    A's row and B's column. The order contract, which every executor
    and the oracle share: per output element, start from the [acc]
    element, add [a.(i,p) *. b.(p,j)] for [p] ascending as a separate
    multiply and add (never a fused multiply-add), and quantize once on
    store. *)
let dot_tiles (a : Tensor.t) (b : Tensor.t) (acc : Tensor.t) =
  if Tensor.rank a <> 2 || Tensor.rank b <> 2 || Tensor.rank acc <> 2 then
    invalid_arg "Interp.dot_tiles: rank <> 2";
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 and n = Tensor.dim b 1 in
  if Tensor.dim b 0 <> k || Tensor.dim acc 0 <> m || Tensor.dim acc 1 <> n then
    invalid_arg "Interp.dot_tiles: shape mismatch";
  let out = Tensor.create ~dtype:acc.Tensor.dtype [| m; n |] in
  let x = a.Tensor.data and y = b.Tensor.data and c = acc.Tensor.data in
  let d = out.Tensor.data in
  for i = 0 to m - 1 do
    let arow = i * k and orow = i * n in
    for jb = 0 to (n / 4) - 1 do
      let j = 4 * jb in
      let o = orow + j in
      let s0 = ref c.%(o) and s1 = ref c.%(o + 1)
      and s2 = ref c.%(o + 2) and s3 = ref c.%(o + 3) in
      let q = ref j in
      for p = arow to arow + k - 1 do
        let av = x.%(p) and bq = !q in
        s0 := !s0 +. (av *. y.%(bq));
        s1 := !s1 +. (av *. y.%(bq + 1));
        s2 := !s2 +. (av *. y.%(bq + 2));
        s3 := !s3 +. (av *. y.%(bq + 3));
        q := bq + n
      done;
      d.%(o) <- !s0;
      d.%(o + 1) <- !s1;
      d.%(o + 2) <- !s2;
      d.%(o + 3) <- !s3
    done;
    for j = 4 * (n / 4) to n - 1 do
      let s = ref c.%(orow + j) in
      for p = 0 to k - 1 do
        s := !s +. (x.%(arow + p) *. y.%((p * n) + j))
      done;
      d.%(orow + j) <- !s
    done
  done;
  Tensor.requantize out;
  out

let result_dtype ty =
  match Types.dtype_of ty with Some d -> d | None -> Dtype.F32

(* Execute a block; returns the operands of its terminating Yield (or
   [] if it does not end in one). *)
let rec exec_block ctx (b : Op.block) : rv list =
  let yielded = ref [] in
  List.iter
    (fun op ->
      ctx.steps <- ctx.steps + 1;
      if ctx.steps > ctx.fuel then error "interpreter fuel exhausted";
      match op.Op.opcode with
      | Op.Yield -> yielded := List.map (lookup ctx) op.operands
      | _ -> exec_op ctx op)
    b.ops;
  !yielded

and exec_op ctx (op : Op.op) =
  let operand i = lookup ctx (List.nth op.operands i) in
  let bind1 rv =
    match op.results with
    | [ r ] -> bind ctx r rv
    | _ -> error "op %s expected single result" (Op.opcode_name op.opcode)
  in
  match op.opcode with
  | Op.Const_int i ->
    let r = List.hd op.results in
    (match Value.ty r with
    | Types.TScalar Dtype.I1 -> bind1 (RBool (i <> 0))
    | Types.TScalar d when Dtype.is_float d -> bind1 (RFloat (Float.of_int i))
    | _ -> bind1 (RInt i))
  | Op.Const_float f -> bind1 (RFloat f)
  | Op.Binop kind -> (
    match (operand 0, operand 1) with
    | RTensor a, RTensor b -> bind1 (RTensor (tile_binop kind a b))
    | x, y -> bind1 (scalar_binop kind x y))
  | Op.Unop kind -> (
    match operand 0 with
    | RTensor t -> bind1 (RTensor (tile_unop kind t))
    | RFloat f -> bind1 (RFloat (float_unop kind f))
    | RInt i -> (
      match kind with
      | Op.Neg -> bind1 (RInt (-i))
      | Op.Abs -> bind1 (RInt (abs i))
      | Op.Not -> bind1 (RInt (lnot i))
      | _ -> bind1 (RFloat (float_unop kind (Float.of_int i))))
    | RBool b' -> (
      match kind with
      | Op.Not -> bind1 (RBool (not b'))
      | _ -> error "unop on bool")
    | _ -> error "unop operand")
  | Op.Cmp kind -> (
    match (operand 0, operand 1) with
    | RTensor a, RTensor b -> bind1 (RTensor (tile_cmp kind a b))
    | RInt a, RInt b -> bind1 (RBool (cmp_pred kind a b))
    | x, y -> bind1 (RBool (cmp_pred kind (as_float x) (as_float y))))
  | Op.Select -> (
    match (operand 0, operand 1, operand 2) with
    | RTensor c, RTensor x, RTensor y -> bind1 (RTensor (tile_select c x y))
    | c, x, y -> bind1 (if as_bool c then x else y))
  | Op.Cast -> (
    let target = Value.ty (List.hd op.results) in
    match operand 0 with
    | RTensor t -> bind1 (RTensor (Tensor.cast (result_dtype target) t))
    | RFloat f -> (
      match target with
      | Types.TScalar Dtype.I32 -> bind1 (RInt (int_of_float f))
      | Types.TScalar d -> bind1 (RFloat (Tensor.quantize d f))
      | _ -> error "cast target")
    | RInt i -> (
      match target with
      | Types.TScalar d when Dtype.is_float d -> bind1 (RFloat (Float.of_int i))
      | _ -> bind1 (RInt i))
    | v -> bind1 v)
  | Op.Program_id axis -> bind1 (RInt ctx.program_id.(axis))
  | Op.Num_programs axis -> bind1 (RInt ctx.num_programs.(axis))
  | Op.Splat ->
    let target = Value.ty (List.hd op.results) in
    let shape = Array.of_list (Option.get (Types.shape_of target)) in
    let v = as_float (operand 0) in
    let t = Tensor.create ~dtype:(result_dtype target) shape in
    Tensor.fill t v;
    bind1 (RTensor t)
  | Op.Iota ->
    let target = Value.ty (List.hd op.results) in
    let n = List.hd (Option.get (Types.shape_of target)) in
    bind1 (RTensor (tile_iota n))
  | Op.Broadcast ->
    let target = Value.ty (List.hd op.results) in
    bind1 (RTensor (broadcast_to (as_tensor (operand 0)) (Option.get (Types.shape_of target))))
  | Op.Expand_dims _ | Op.Reshape ->
    let target = Value.ty (List.hd op.results) in
    let shape = Array.of_list (Option.get (Types.shape_of target)) in
    bind1 (RTensor (Tensor.reshape (as_tensor (operand 0)) shape))
  | Op.Trans -> bind1 (RTensor (Tensor.transpose2 (as_tensor (operand 0))))
  | Op.Reduce (kind, axis) -> bind1 (RTensor (reduce_tensor kind axis (as_tensor (operand 0))))
  | Op.Dot | Op.Wgmma_issue ->
    bind1
      (RTensor (dot_tiles (as_tensor (operand 0)) (as_tensor (operand 1)) (as_tensor (operand 2))))
  | Op.Wgmma_wait _ -> ()
  | Op.Make_tensor_desc ->
    let buffer = as_tensor (operand 0) in
    let target = Value.ty (List.hd op.results) in
    let dtype = result_dtype target in
    bind1 (RDesc { buffer; dtype })
  | Op.Tma_load ->
    let d = as_desc (operand 0) in
    let target = Value.ty (List.hd op.results) in
    (match Option.get (Types.shape_of target) with
    | [ rows; cols ] ->
      let r0 = as_int (operand 1) and c0 = as_int (operand 2) in
      bind1 (RTensor (Tensor.slice2 ~dtype:d.dtype d.buffer ~r0 ~c0 ~rows ~cols))
    | [ n ] ->
      let c0 = as_int (operand 1) in
      let tile = Tensor.slice2 ~dtype:d.dtype d.buffer ~r0:0 ~c0 ~rows:1 ~cols:n in
      bind1 (RTensor (Tensor.reshape tile [| n |]))
    | _ -> error "tma_load: unsupported rank")
  | Op.Tma_store ->
    let d = as_desc (operand 0) in
    let nops = List.length op.operands in
    let tile = as_tensor (lookup ctx (List.nth op.operands (nops - 1))) in
    let r0 = as_int (operand 1) in
    let c0 = if nops > 3 then as_int (operand 2) else 0 in
    Tensor.blit2 ~dst:d.buffer ~r0 ~c0 tile
  | Op.Local_alloc | Op.Local_load -> bind1 (operand 0)
  | Op.For ->
    let lb = as_int (operand 0) and ub = as_int (operand 1) and step = as_int (operand 2) in
    if step <= 0 then error "for: non-positive step";
    let inits = List.filteri (fun i _ -> i >= 3) op.operands |> List.map (lookup ctx) in
    let blk = Op.entry_block (List.hd op.regions) in
    let iv, iters =
      match blk.params with
      | iv :: iters -> (iv, iters)
      | [] -> error "for: missing induction variable"
    in
    let values = ref inits in
    let k = ref lb in
    while !k < ub do
      bind ctx iv (RInt !k);
      List.iter2 (bind ctx) iters !values;
      values := exec_block ctx blk;
      k := !k + step
    done;
    List.iter2 (bind ctx) op.results !values
  | Op.If ->
    let c = as_bool (operand 0) in
    let region = List.nth op.regions (if c then 0 else 1) in
    let ys = exec_block ctx (Op.entry_block region) in
    List.iter2 (bind ctx) op.results ys
  | Op.Yield -> () (* handled by exec_block *)
  | Op.Warp_group ->
    (* Producer-before-consumer sequential schedule; see module doc. *)
    List.iter (fun r -> ignore (exec_block ctx (Op.entry_block r))) op.regions
  | Op.Aref_create _ -> bind1 (RChan (Queue.create ()))
  | Op.Aref_put ->
    let q = as_chan (operand 0) in
    let payload = List.filteri (fun i _ -> i >= 2) op.operands |> List.map (lookup ctx) in
    Queue.push payload q
  | Op.Aref_get ->
    let q = as_chan (operand 0) in
    if Queue.is_empty q then error "aref_get on empty channel (sequential schedule)";
    let payload = Queue.pop q in
    List.iter2 (bind ctx) op.results payload
  | Op.Aref_consumed -> ()

(** Run a kernel instance. [args] binds kernel parameters: pointers bind
    to global buffers ([RTensor]), scalars to [RInt]/[RFloat]. Stores
    mutate the bound buffers in place. *)
let run_program ?fuel ~program_id ~num_programs (k : Kernel.t) (args : rv list) =
  let ctx = create_ctx ?fuel ~program_id ~num_programs () in
  if List.length args <> List.length k.params then error "run_program: arity mismatch";
  List.iter2 (bind ctx) k.params args;
  ignore (exec_block ctx (Kernel.entry k));
  ctx.steps

(** Launch a kernel over a full grid, sequentially. *)
let run_grid ?fuel ~grid (k : Kernel.t) (args : rv list) =
  let gx, gy, gz = grid in
  let num_programs = [| gx; gy; gz |] in
  let total = ref 0 in
  for x = 0 to gx - 1 do
    for y = 0 to gy - 1 do
      for z = 0 to gz - 1 do
        total := !total + run_program ?fuel ~program_id:[| x; y; z |] ~num_programs k args
      done
    done
  done;
  !total
