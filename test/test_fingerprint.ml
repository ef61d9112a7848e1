(* Kernel fingerprints and the footprint memo they key.

   The fingerprint is the compile cache's notion of "same kernel": it
   must equate structurally identical kernels whatever their value ids,
   separate kernels that differ in any field codegen reads (floats down
   to the last bit), and partition the figure sweeps' kernels exactly
   as the printed form did. The footprint memo must be invisible: the
   same reports as an uncached computation, after in-place mutation
   too, and empty after [Flow.clear_cache]. *)

open Tawa_ir
open Tawa_frontend
open Tawa_machine
open Tawa_analysis
open Tawa_core

let fp = Progcache.kernel_fingerprint
let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }

let one_kernel = function
  | [ k ] -> k
  | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks)

let read_example name =
  let ic = open_in_bin (Test_examples.path name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [f] with the compile cache and the footprint memo off. *)
let uncached f =
  let was = Progcache.is_enabled () in
  Progcache.set_enabled false;
  Fun.protect ~finally:(fun () -> Progcache.set_enabled was) f

let examples = [ "attention.tw"; "gemm.tw"; "gemm_bias_relu.tw"; "gemm_fp8.tw" ]

(* The attention example needs the coarse pipeline (two dots). *)
let example_options name =
  { Flow.default_options with use_coarse = name = "attention.tw" }

(* ------------------------ printed-form oracle ----------------------- *)

(* The fingerprint's previous definition, kept here as an independent
   oracle: the printed kernel with every SSA token renumbered by first
   occurrence. It prints floats with %g, so it aliases nearby floats;
   the fingerprint must agree with it everywhere else. *)
let printed_form (k : Kernel.t) =
  let s = Printer.kernel_to_string k in
  let n = String.length s in
  let buf = Buffer.create n in
  let ids = Hashtbl.create 64 in
  let is_ident = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident s.[!j] do
        incr j
      done;
      let tok = String.sub s !i (!j - !i) in
      let id =
        match Hashtbl.find_opt ids tok with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids tok id;
          id
      in
      Buffer.add_string buf ("%v" ^ string_of_int id);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Digest.string (Buffer.contents buf)

(* ---------------------------- equality ---------------------------- *)

let check_same what a b = Alcotest.(check string) what (fp a) (fp b)

let test_rebuilt_equal () =
  check_same "gemm rebuilt" (Kernels.gemm ()) (Kernels.gemm ());
  check_same "attention rebuilt"
    (Kernels.attention ~causal:true ())
    (Kernels.attention ~causal:true ());
  List.iter
    (fun name ->
      let load () = one_kernel (Elaborate.compile_file (Test_examples.path name)) in
      let k = load () in
      check_same (name ^ " re-elaborated") k (load ());
      check_same (name ^ " cloned") k (Kernel.clone k);
      let t = (Flow.compile ~options:(example_options name) k).Flow.transformed in
      check_same (name ^ " transformed, cloned") t (Kernel.clone t))
    examples

let prop_fuzz_rebuilt_equal =
  QCheck.Test.make ~name:"fingerprint: random kernels rebuilt or cloned fingerprint equal"
    ~count:50 Test_fuzz.arb_spec (fun s ->
      let k = Test_fuzz.build_kernel s in
      fp k = fp (Test_fuzz.build_kernel s) && fp k = fp (Kernel.clone k))

(* --------------------- single-field sensitivity -------------------- *)

let all_ops (k : Kernel.t) = List.rev (Op.fold_region (fun acc o -> o :: acc) [] k.Kernel.body)

(* Mutations that find no op to act on raise [Not_found]; that base is
   skipped. *)
let find_op k pred = List.find pred (all_ops k)

(* Swap [old] for [nw] in whichever block of [k] holds it. *)
let replace_op (k : Kernel.t) old nw =
  let rec region (r : Op.region) = List.iter block r.Op.blocks
  and block (b : Op.block) =
    b.Op.ops <- List.map (fun o -> if o == old then nw else o) b.Op.ops;
    List.iter (fun (o : Op.op) -> List.iter region o.Op.regions) b.Op.ops
  in
  region k.Kernel.body

(* A fresh value of type [ty] that takes over every use of [v]; the
   caller re-points the definition. *)
let retype (k : Kernel.t) v ty =
  let v' = Value.fresh ~hint:(Value.hint v) ty in
  Op.substitute_uses (fun u -> if Value.equal u v then v' else u) k.Kernel.body;
  v'

let swap v v' l = List.map (fun u -> if Value.equal u v then v' else u) l

let mutations : (string * (Kernel.t -> Kernel.t)) list =
  [ ( "op attr value",
      fun k ->
        let o =
          find_op k (fun o ->
              List.exists (function _, Op.Attr_int _ -> true | _ -> false) o.Op.attrs)
        in
        let key, i =
          List.find_map (function key, Op.Attr_int i -> Some (key, i) | _ -> None) o.Op.attrs
          |> Option.get
        in
        Op.set_attr o key (Op.Attr_int (i + 1));
        k );
    ( "kernel attr value",
      fun k ->
        let i = Option.value (Kernel.attr_int k "num_consumer_wgs") ~default:1 in
        Kernel.set_attr k "num_consumer_wgs" (Op.Attr_int (i + 1));
        k );
    ( "Const_int",
      fun k ->
        let o = find_op k (fun o -> match o.Op.opcode with Op.Const_int _ -> true | _ -> false) in
        (match o.Op.opcode with
        | Op.Const_int i -> replace_op k o { o with Op.opcode = Op.Const_int (i + 1) }
        | _ -> assert false);
        k );
    ( "Const_float by one ulp",
      fun k ->
        let o =
          find_op k (fun o ->
              match o.Op.opcode with Op.Const_float f -> f <> 0.0 | _ -> false)
        in
        (match o.Op.opcode with
        | Op.Const_float f -> replace_op k o { o with Op.opcode = Op.Const_float (Float.succ f) }
        | _ -> assert false);
        k );
    ( "result shape",
      fun k ->
        let o =
          find_op k (fun o ->
              match o.Op.results with
              | [ r ] -> Types.is_tensor (Value.ty r)
              | _ -> false)
        in
        let r = List.hd o.Op.results in
        let shape = Option.get (Types.shape_of (Value.ty r)) in
        let dtype = Option.get (Types.dtype_of (Value.ty r)) in
        let r' = retype k r (Types.tensor (List.map (fun d -> 2 * d) shape) dtype) in
        replace_op k o { o with Op.results = [ r' ] };
        k );
    ( "operand order",
      fun k ->
        let o =
          find_op k (fun o ->
              match o.Op.operands with a :: b :: _ -> not (Value.equal a b) | _ -> false)
        in
        (match o.Op.operands with
        | a :: b :: rest -> o.Op.operands <- b :: a :: rest
        | _ -> assert false);
        k );
    ("kernel name", fun k -> { k with Kernel.name = k.Kernel.name ^ "_" });
    ( "block-param type",
      fun k ->
        let o = find_op k (fun o -> o.Op.opcode = Op.For) in
        let blk = Op.entry_block (List.hd o.Op.regions) in
        let p = List.hd blk.Op.params in
        let ty = if Types.equal (Value.ty p) Types.i32 then Types.f32 else Types.i32 in
        blk.Op.params <- swap p (retype k p ty) blk.Op.params;
        k ) ]

let test_single_field_changes () =
  let gemm = Kernels.gemm ~tiles:small_tiles () in
  let bases =
    [ ("gemm", gemm);
      ("attention", Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ());
      ("transformed gemm", (Flow.compile gemm).Flow.transformed) ]
  in
  List.iter
    (fun (mname, mutate) ->
      let applied =
        List.filter
          (fun (bname, base) ->
            let what = Printf.sprintf "%s: %s" bname mname in
            let f0 = fp base in
            match mutate (Kernel.clone base) with
            | exception Not_found -> false
            | m ->
              if fp m = f0 then Alcotest.failf "%s left the fingerprint unchanged" what;
              Alcotest.(check string) (what ^ " leaves the base alone") f0 (fp base);
              true)
          bases
      in
      if applied = [] then Alcotest.failf "%s: applies to no base kernel" mname)
    mutations

(* ---------------------- float-aliasing regression ------------------- *)

(* Float immediates the program's ALU and tile instructions read. *)
let float_imms (p : Isa.program) =
  let acc = ref [] in
  let o = function Isa.Fimm f -> acc := f :: !acc | _ -> () in
  List.iter
    (fun (s : Isa.stream) ->
      Array.iter
        (function
          | Isa.Alu { a; b; _ } | Isa.Cmp { a; b; _ } | Isa.Tile_binop { a; b; _ }
          | Isa.Tile_cmp { a; b; _ } ->
            o a;
            o b
          | Isa.Sel { cond; a; b; _ } | Isa.Tile_select { cond; a; b; _ } ->
            o cond;
            o a;
            o b
          | Isa.Mov { src; _ } | Isa.Tile_splat { src; _ } | Isa.Tile_unop { src; _ }
          | Isa.Tile_bcast { src; _ } ->
            o src
          | _ -> ())
        s.Isa.instrs)
    p.Isa.streams;
  !acc

(* The two scales print alike under %g; the old printed-form key
   served the first kernel's program for the second. *)
let test_float_aliasing () =
  let scale = "0.35355339059" and near = "0.35355349059" in
  let src = read_example "attention.tw" in
  let src' = Astring.String.cuts ~sep:scale src |> String.concat near in
  Alcotest.(check bool) "scale substituted" true (src <> src');
  let k = one_kernel (Elaborate.compile_string src) in
  let k' = one_kernel (Elaborate.compile_string src') in
  Alcotest.(check bool) "printed forms alias (the old key)" true (printed_form k = printed_form k');
  Alcotest.(check bool) "fingerprints differ" true (fp k <> fp k');
  Flow.clear_cache ();
  let options = example_options "attention.tw" in
  let c = Flow.compile ~options k in
  let c' = Flow.compile ~options k' in
  let s = Flow.cache_stats () in
  Alcotest.(check int) "two misses" 2 s.Progcache.misses;
  Alcotest.(check int) "no hit" 0 s.Progcache.hits;
  let has p f = List.mem f (float_imms p) in
  let x = float_of_string scale and x' = float_of_string near in
  Alcotest.(check (pair bool bool)) "first program's scale" (true, false)
    (has c.Flow.program x, has c.Flow.program x');
  Alcotest.(check (pair bool bool)) "second program's scale" (false, true)
    (has c'.Flow.program x, has c'.Flow.program x')

(* ------------------------ sweep equivalence ------------------------ *)

(* The kernels the figure sweeps compile: the Fig. 8 GEMM and Fig. 10
   attention families at every [Autotune.space] candidate. *)
let sweep_families () : Autotune.family list =
  List.concat_map
    (fun dtype ->
      List.map (fun k -> Autotune.Gemm (Workloads.paper_gemm ~dtype k)) Workloads.paper_gemm_ks)
    [ Tawa_tensor.Dtype.F16; Tawa_tensor.Dtype.F8E4M3 ]
  @ List.concat_map
      (fun causal ->
        List.map (fun len -> Autotune.Attention (Workloads.paper_mha ~causal len)) Workloads.paper_mha_lens)
      [ false; true ]

(* Source and transformed kernels, compiled uncached so every kernel is
   an independent object. *)
let corpus () =
  uncached (fun () ->
      let both options k = [ k; (Flow.compile ~options k).Flow.transformed ] in
      List.concat_map
        (fun name ->
          both (example_options name) (one_kernel (Elaborate.compile_file (Test_examples.path name))))
        examples
      @ List.concat_map
          (fun family ->
            List.concat_map
              (fun c -> both (Autotune.options_of c) (Autotune.kernel_of family c))
              (Autotune.space family))
          (sweep_families ()))

let test_classes_match_oracle () =
  let keys = List.map (fun k -> (fp k, printed_form k)) (corpus ()) in
  let distinct l = List.length (List.sort_uniq compare l) in
  let by_fp = distinct (List.map fst keys)
  and by_oracle = distinct (List.map snd keys)
  and joint = distinct keys in
  (* Equal class counts under both keys and their pairing means the
     two partitions coincide. *)
  Alcotest.(check int) "fingerprint classes = joint classes" joint by_fp;
  Alcotest.(check int) "oracle classes = joint classes" joint by_oracle;
  Alcotest.(check bool) "sweeps repeat kernels" true (by_fp < List.length keys)

(* -------------------------- footprint memo ------------------------- *)

let memo_gauge field =
  match List.assoc_opt ("progcache.statcheck.footprint." ^ field) (Tawa_obs.Registry.snapshot ()) with
  | Some (Tawa_obs.Registry.Int n) -> n
  | _ -> Alcotest.failf "gauge progcache.statcheck.footprint.%s missing" field

let coop_gemm () =
  (Flow.compile ~options:{ Flow.default_options with num_consumer_wgs = 2 } (Kernels.gemm ()))
    .Flow.transformed

let test_memo_hit_after_compile () =
  Flow.clear_cache ();
  let k = coop_gemm () in
  let s0 = Progcache.stats Footprint.memo in
  let r = Statcheck.occupancy_report k in
  let s1 = Progcache.stats Footprint.memo in
  (* Statcheck (warn mode) sized the kernel inside the compile miss. *)
  Alcotest.(check int) "occupancy is a memo hit" 1 (s1.Progcache.hits - s0.Progcache.hits);
  Alcotest.(check int) "no new miss" 0 (s1.Progcache.misses - s0.Progcache.misses);
  Alcotest.(check bool) "same report as uncached" true
    (r = uncached (fun () -> Statcheck.occupancy_report k))

let test_memo_in_place_mutation () =
  Flow.clear_cache ();
  (* A private copy: the compile cache shares its transformed kernel. *)
  let k = Kernel.clone (coop_gemm ()) in
  (match Statcheck.occupancy k with
  | Resources.Feasible _ -> ()
  | Resources.Infeasible why -> Alcotest.failf "coop gemm infeasible: %s" why);
  Kernel.set_attr k "num_consumer_wgs" (Op.Attr_int 1);
  (match Statcheck.occupancy k with
  | Resources.Infeasible _ -> ()
  | Resources.Feasible _ -> Alcotest.fail "coop-1 verdict served from the coop-2 entry");
  Alcotest.(check bool) "mutated report = uncached" true
    (Statcheck.occupancy_report k = uncached (fun () -> Statcheck.occupancy_report k))

let test_memo_labels_own_ops () =
  Flow.clear_cache ();
  let k = coop_gemm () in
  let k' = Kernel.clone k in
  let r = Statcheck.occupancy_report k and r' = Statcheck.occupancy_report k' in
  let oids k = List.map (fun (o : Op.op) -> o.Op.oid) (all_ops k) in
  let ids r = List.map (fun (it : Footprint.smem_item) -> it.Footprint.op_id) r.Statcheck.smem_items in
  Alcotest.(check bool) "items present" true (ids r <> []);
  Alcotest.(check bool) "labels name the original's ops" true
    (List.for_all (fun i -> List.mem i (oids k)) (ids r));
  Alcotest.(check bool) "labels name the clone's ops" true
    (List.for_all (fun i -> List.mem i (oids k')) (ids r'));
  Alcotest.(check bool) "clone report = uncached" true
    (r' = uncached (fun () -> Statcheck.occupancy_report k'))

let test_memo_cleared () =
  ignore (Statcheck.occupancy (coop_gemm ()));
  Alcotest.(check bool) "entries before clear" true (memo_gauge "entries" > 0);
  Flow.clear_cache ();
  List.iter
    (fun field -> Alcotest.(check int) (field ^ " after clear") 0 (memo_gauge field))
    [ "entries"; "hits"; "misses" ]

let test_memo_disabled () =
  Flow.clear_cache ();
  uncached (fun () ->
      let k = coop_gemm () in
      ignore (Statcheck.occupancy k);
      ignore (Statcheck.occupancy k));
  List.iter
    (fun field -> Alcotest.(check int) (field ^ " while disabled") 0 (memo_gauge field))
    [ "entries"; "hits"; "misses" ]

let suites =
  [ ( "fingerprint.equality",
      [ Alcotest.test_case "rebuilt and cloned kernels" `Quick test_rebuilt_equal;
        QCheck_alcotest.to_alcotest prop_fuzz_rebuilt_equal ] );
    ( "fingerprint.sensitivity",
      [ Alcotest.test_case "every single-field change" `Quick test_single_field_changes;
        Alcotest.test_case "1e-7 apart scales compile apart" `Quick test_float_aliasing ] );
    ( "fingerprint.classes",
      [ Alcotest.test_case "sweep kernels partition as the printed form" `Quick
          test_classes_match_oracle ] );
    ( "statcheck.memo",
      [ Alcotest.test_case "occupancy after a compile miss hits" `Quick test_memo_hit_after_compile;
        Alcotest.test_case "in-place mutation recomputes" `Quick test_memo_in_place_mutation;
        Alcotest.test_case "labels name the caller's ops" `Quick test_memo_labels_own_ops;
        Alcotest.test_case "Flow.clear_cache empties it" `Quick test_memo_cleared;
        Alcotest.test_case "disabled cache bypasses it" `Quick test_memo_disabled ] ) ]
