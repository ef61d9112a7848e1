(** Compiled-program cache.

    Bench sweeps and repeated test launches compile the same frontend
    kernel with the same options over and over (every sweep point, every
    autotune candidate re-runs the full pass stack + codegen). This
    module memoizes [kernel fingerprint x config -> compiled artifact].

    The fingerprint is content-based: a direct walk over the kernel
    structure ({!kernel_fingerprint}) with SSA values renumbered by
    first occurrence, so two structurally identical kernels built at
    different times (with different global value ids) hash identically.
    Kernel attributes, parameter/result types and constants (floats by
    their bits) are part of the walk, so changing any of them misses
    the cache; the caller appends its own option encoding to the key so
    changing any config field misses too. The same table keys the
    decode cache by {!program_fingerprint} and the statcheck footprint
    memo by {!kernel_fingerprint}.

    The table is guarded by a mutex: parallel bench sweeps compile from
    several domains at once. Lookups and insertions are locked; a missed
    compile runs outside the lock (two domains racing on the same key
    may both compile, last insert wins — both artifacts are equivalent
    by construction). {!set_enabled} turns caching off process-wide
    (the executables map [TAWA_COMPILE_CACHE=0] to it). *)

open Tawa_ir

type stats = { mutable hits : int; mutable misses : int; mutable evictions : int }

type 'v t = {
  table : (string, 'v) Hashtbl.t;
  lock : Mutex.t;
  stats : stats;
  max_entries : int;
}

(* Process-wide switch, on by default; the bench harness flips it to
   measure the uncached sequential baseline. *)
let enabled = Atomic.make true

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(** [create ?name ()] — a [name] additionally registers
    [progcache.<name>.{hits,misses,evictions,entries}] gauges in
    {!Tawa_obs.Registry}, so long-lived caches surface in [--obs]
    output and [bench --json] without ad-hoc printing. *)
let create ?name ?(max_entries = 512) () =
  let c =
    { table = Hashtbl.create 64; lock = Mutex.create ();
      stats = { hits = 0; misses = 0; evictions = 0 }; max_entries }
  in
  (match name with
  | None -> ()
  | Some n ->
    let gauge field f =
      Tawa_obs.Registry.register_gauge
        (Printf.sprintf "progcache.%s.%s" n field)
        (fun () ->
          Mutex.lock c.lock;
          let v = f () in
          Mutex.unlock c.lock;
          Tawa_obs.Registry.Int v)
    in
    gauge "hits" (fun () -> c.stats.hits);
    gauge "misses" (fun () -> c.stats.misses);
    gauge "evictions" (fun () -> c.stats.evictions);
    gauge "entries" (fun () -> Hashtbl.length c.table));
  c

let clear c =
  Mutex.lock c.lock;
  Hashtbl.reset c.table;
  c.stats.hits <- 0;
  c.stats.misses <- 0;
  c.stats.evictions <- 0;
  Mutex.unlock c.lock

(** Snapshot of the hit/miss/eviction counters (copied, safe to keep). *)
let stats c =
  Mutex.lock c.lock;
  let s = { hits = c.stats.hits; misses = c.stats.misses; evictions = c.stats.evictions } in
  Mutex.unlock c.lock;
  s

let length c =
  Mutex.lock c.lock;
  let n = Hashtbl.length c.table in
  Mutex.unlock c.lock;
  n

(** [find_or_add c ~key f]: return the cached artifact for [key], or
    compute it with [f], cache it, and return it. With caching disabled
    this is just [f ()]. *)
let find_or_add c ~key f =
  if not (Atomic.get enabled) then f ()
  else begin
    Mutex.lock c.lock;
    match Hashtbl.find_opt c.table key with
    | Some v ->
      c.stats.hits <- c.stats.hits + 1;
      Mutex.unlock c.lock;
      v
    | None ->
      c.stats.misses <- c.stats.misses + 1;
      Mutex.unlock c.lock;
      (* Compile outside the lock so independent keys proceed in
         parallel. *)
      let v = f () in
      Mutex.lock c.lock;
      if Hashtbl.length c.table >= c.max_entries then begin
        c.stats.evictions <- c.stats.evictions + Hashtbl.length c.table;
        Hashtbl.reset c.table
      end;
      Hashtbl.replace c.table key v;
      Mutex.unlock c.lock;
      v
  end

(* ----------------------- kernel fingerprint ----------------------- *)

(* The fingerprint encoding. Ints are zigzag varints (prefix-free, one
   byte for the small values that dominate), float bits are fixed-width,
   every string and list is length-prefixed and every variant carries a
   tag, so the byte stream is an injective function of the kernel
   structure (modulo SSA value ids, which are renumbered densely). The
   digest is most of the cost, so the stream is kept short. *)

let add_int b i =
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr z)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go ((i lsl 1) lxor (i asr (Sys.int_size - 1)))

let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_list b f l =
  add_int b (List.length l);
  List.iter f l

let add_dtype b (d : Tawa_tensor.Dtype.t) = add_str b (Tawa_tensor.Dtype.to_string d)

let rec add_ty b (t : Types.ty) =
  match t with
  | Types.TScalar d -> Buffer.add_char b 's'; add_dtype b d
  | Types.TPtr d -> Buffer.add_char b 'p'; add_dtype b d
  | Types.TTensor { shape; dtype } ->
    Buffer.add_char b 't'; add_list b (add_int b) shape; add_dtype b dtype
  | Types.TMemDesc { shape; dtype } ->
    Buffer.add_char b 'm'; add_list b (add_int b) shape; add_dtype b dtype
  | Types.TTensorDesc { dims; dtype } -> Buffer.add_char b 'd'; add_int b dims; add_dtype b dtype
  | Types.TAref { payload; depth } ->
    Buffer.add_char b 'a'; add_list b (add_ty b) payload; add_int b depth
  | Types.TToken -> Buffer.add_char b 'k'

let add_attr b ((key, a) : string * Op.attr) =
  add_str b key;
  match a with
  | Op.Attr_int i -> Buffer.add_char b 'i'; add_int b i
  | Op.Attr_float f -> Buffer.add_char b 'f'; add_float b f
  | Op.Attr_string s -> Buffer.add_char b 's'; add_str b s
  | Op.Attr_bool v -> Buffer.add_char b (if v then 'T' else 'F')
  | Op.Attr_ints l -> Buffer.add_char b 'l'; add_list b (add_int b) l
  | Op.Attr_dtype d -> Buffer.add_char b 'd'; add_dtype b d

(* [opcode_name] is injective except on the two constants; the payload
   (an axis, depth or pending count) follows the name. *)
let add_opcode b (o : Op.opcode) =
  add_str b (Op.opcode_name o);
  match o with
  | Op.Const_int i -> Buffer.add_char b 'i'; add_int b i
  | Op.Const_float f -> Buffer.add_char b 'f'; add_float b f
  | Op.Program_id a | Op.Num_programs a | Op.Expand_dims a | Op.Reduce (_, a)
  | Op.Aref_create a | Op.Wgmma_wait a ->
    add_int b a
  | _ -> ()

(** Content fingerprint of a kernel: the digest of a walk over
    everything codegen sees — the kernel name, parameter types and
    attributes, then per region, block and op the block parameters and
    results with their types, the opcode and its payload, the operands
    and the attributes. SSA values are numbered by first occurrence in
    walk order, so structurally identical kernels built at different
    times (different global value ids, value hints or op ids)
    fingerprint equal. Value hints are left out too: they only name
    buffers and barriers in the lowered program, so a hit may carry the
    names of the compile that filled the entry. Floats enter by their
    IEEE bits ([Int64.bits_of_float]), never by a printed form, so
    constants one ulp apart fingerprint differently. *)
let kernel_fingerprint (k : Kernel.t) =
  let b = Buffer.create 4096 in
  let ids = Value.Tbl.create 64 in
  let use v =
    add_int b
      (match Value.Tbl.find_opt ids v with
      | Some n -> n
      | None ->
        let n = Value.Tbl.length ids in
        Value.Tbl.add ids v n;
        n)
  in
  let def v = use v; add_ty b (Value.ty v) in
  let rec region (r : Op.region) = add_list b block r.Op.blocks
  and block (blk : Op.block) =
    add_list b def blk.Op.params;
    add_list b op blk.Op.ops
  and op (o : Op.op) =
    add_list b def o.Op.results;
    add_opcode b o.Op.opcode;
    add_list b use o.Op.operands;
    add_list b (add_attr b) o.Op.attrs;
    add_list b region o.Op.regions
  in
  add_str b k.Kernel.name;
  add_list b def k.Kernel.params;
  add_list b (add_attr b) k.Kernel.attrs;
  region k.Kernel.body;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Program fingerprints memoized by physical identity. Lowered
   programs are immutable (the contract stated on {!Isa.program}), so a
   program's digest never changes, and a launch that re-presents the
   same program object — every estimate of a sweep point, every CTA
   wave — pays one hash-table probe instead of marshalling and
   digesting the whole program. The table holds its programs strongly
   (a weak-key ephemeron table delays the major GC enough to raise the
   sweep benchmark's peak RSS by a third), so it is bounded like a
   cache: emptied when it reaches [max_fingerprints] entries, and by
   {!clear_program_fingerprints} together with the caches it keys. The
   lock makes it safe to share across the domain pool. *)
module Phys = Hashtbl.Make (struct
  type t = Isa.program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let fingerprints : string Phys.t = Phys.create 64
let fingerprints_lock = Mutex.create ()
let max_fingerprints = 512

(** Empty the program-fingerprint memo (its programs become
    collectable); [Engine.clear_decode_cache] calls it. *)
let clear_program_fingerprints () =
  Mutex.lock fingerprints_lock;
  Phys.reset fingerprints;
  Mutex.unlock fingerprints_lock

(** Content fingerprint of a machine program: digest of its marshalled
    form. [Isa.program] is pure data (no closures, no cycles), and
    register/alloc/barrier ids are assigned densely per program by
    codegen, so structural equality implies identical marshalling.
    Keys the decode cache ({!Engine}) the way {!kernel_fingerprint}
    keys the compile cache. Computed once per program object (see
    [fingerprints] above); structurally equal programs built separately
    digest to the same value. *)
let program_fingerprint (p : Isa.program) =
  Mutex.lock fingerprints_lock;
  let memo = Phys.find_opt fingerprints p in
  Mutex.unlock fingerprints_lock;
  match memo with
  | Some fp -> fp
  | None ->
    let fp = Digest.to_hex (Digest.string (Marshal.to_string p [])) in
    Mutex.lock fingerprints_lock;
    if Phys.length fingerprints >= max_fingerprints then Phys.reset fingerprints;
    Phys.replace fingerprints p fp;
    Mutex.unlock fingerprints_lock;
    fp
