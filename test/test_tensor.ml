(* Tests for the numerics substrate: dtype metadata, FP16/FP8 codecs,
   dense tensors, and reference kernels. *)

open Tawa_tensor
open Tawa_ir

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Closure-per-element oracle                                         *)
(* ------------------------------------------------------------------ *)

(* The tile kernels in [Interp] compute in raw float space and quantize
   once at the end. These are the forms they replaced: one closure call
   and one quantizing [set_flat]/[set] per element, built only from the
   scalar semantics ([Interp.float_binop] & co.) and the per-element
   tensor accessors. The kernel properties below demand bit equality
   against them. *)

let oracle_map f t =
  let out = Tensor.create ~dtype:(Tensor.dtype t) (Tensor.shape t) in
  for i = 0 to Tensor.numel t - 1 do
    Tensor.set_flat out i (f (Tensor.get_flat t i))
  done;
  out

let oracle_map2 f a b =
  let out = Tensor.create ~dtype:(Tensor.dtype a) (Tensor.shape a) in
  for i = 0 to Tensor.numel a - 1 do
    Tensor.set_flat out i (f (Tensor.get_flat a i) (Tensor.get_flat b i))
  done;
  out

(* ------------------------------------------------------------------ *)
(* Dtype                                                              *)
(* ------------------------------------------------------------------ *)

let test_dtype_sizes () =
  Alcotest.(check int) "f32 bytes" 4 (Dtype.size_bytes F32);
  Alcotest.(check int) "f16 bytes" 2 (Dtype.size_bytes F16);
  Alcotest.(check int) "f8 bytes" 1 (Dtype.size_bytes F8E4M3);
  Alcotest.(check int) "f16 bits" 16 (Dtype.size_bits F16)

let test_dtype_strings () =
  List.iter
    (fun d ->
      match Dtype.of_string (Dtype.to_string d) with
      | Some d' -> Alcotest.(check bool) "roundtrip" true (Dtype.equal d d')
      | None -> Alcotest.fail "of_string failed")
    [ Dtype.F32; F16; F8E4M3; I32; I1 ];
  Alcotest.(check bool) "unknown" true (Dtype.of_string "f64" = None)

let test_dtype_classes () =
  Alcotest.(check bool) "f16 float" true (Dtype.is_float F16);
  Alcotest.(check bool) "i32 int" true (Dtype.is_int I32);
  Alcotest.(check bool) "i32 not float" false (Dtype.is_float I32)

(* ------------------------------------------------------------------ *)
(* FP16                                                               *)
(* ------------------------------------------------------------------ *)

let test_fp16_known_values () =
  let cases =
    [ (0.0, 0x0000); (1.0, 0x3c00); (-1.0, 0xbc00); (2.0, 0x4000);
      (0.5, 0x3800); (65504.0, 0x7bff); (Float.infinity, 0x7c00);
      (Float.neg_infinity, 0xfc00); (2. ** -24., 0x0001);
      (2. ** -14., 0x0400); (1.5, 0x3e00) ]
  in
  List.iter
    (fun (f, bits) ->
      Alcotest.(check int) (Printf.sprintf "encode %g" f) bits (Fp16.of_float f))
    cases;
  List.iter
    (fun (f, bits) -> check_float (Printf.sprintf "decode %#x" bits) f (Fp16.to_float bits))
    cases

let test_fp16_overflow () =
  Alcotest.(check int) "overflow -> inf" 0x7c00 (Fp16.of_float 1e6);
  Alcotest.(check int) "neg overflow" 0xfc00 (Fp16.of_float (-1e6));
  (* 65520 is the rounding boundary: values >= 65520 round to inf. *)
  Alcotest.(check int) "65519 -> max" 0x7bff (Fp16.of_float 65519.0);
  Alcotest.(check int) "65520 -> inf" 0x7c00 (Fp16.of_float 65520.0)

let test_fp16_underflow () =
  Alcotest.(check int) "tiny -> 0" 0x0000 (Fp16.of_float 1e-9);
  Alcotest.(check int) "neg tiny -> -0" 0x8000 (Fp16.of_float (-1e-9));
  (* Half of the smallest subnormal rounds to zero (ties to even). *)
  Alcotest.(check int) "half-ulp tie" 0x0000 (Fp16.of_float (2. ** -25.));
  Alcotest.(check int) "just above tie" 0x0001 (Fp16.of_float (2. ** -25. *. 1.1))

let test_fp16_nan () =
  Alcotest.(check bool) "nan encodes to nan" true (Fp16.is_nan (Fp16.of_float Float.nan));
  Alcotest.(check bool) "decode nan" true (Float.is_nan (Fp16.to_float 0x7e00));
  Alcotest.(check bool) "inf detect" true (Fp16.is_inf 0x7c00)

let test_fp16_round_to_even () =
  (* 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even -> 1.0. *)
  check_float "tie down" 1.0 (Fp16.round (1.0 +. (2. ** -11.)));
  (* (1+2^-10) + 2^-11 ties up to 1+2^-9. *)
  check_float "tie up" (1.0 +. (2. ** -9.))
    (Fp16.round (1.0 +. (2. ** -10.) +. (2. ** -11.)))

let test_fp16_exhaustive_roundtrip () =
  (* Every finite half value must decode/encode to itself. *)
  for bits = 0 to 0xffff do
    if not (Fp16.is_nan bits) then begin
      let f = Fp16.to_float bits in
      let bits' = Fp16.of_float f in
      if bits' <> bits then
        Alcotest.failf "fp16 roundtrip: %#x -> %g -> %#x" bits f bits'
    end
  done

let test_fp16_two_step_rounding () =
  (* [of_float] rounds binary64 -> binary32 -> binary16 (an FP32 value
     through cvt.rn.f16.f32). 1 + 2^-11 + 2^-40 first rounds to the
     binary32 tie 1 + 2^-11, which ties to even at 1.0; a single
     binary64 -> binary16 step would give 1 + 2^-10 = 1.0009765625. *)
  let x = 1. +. ldexp 1. (-11) +. ldexp 1. (-40) in
  Alcotest.(check int64) "two-step result" (Int64.bits_of_float 1.0)
    (Int64.bits_of_float (Fp16.round x));
  Alcotest.(check bool) "differs from one-step RNE" true
    (Fp16.round x <> 1.0009765625)

(* binary32 -> binary16 bits with the round-to-nearest-even decision
   made by explicit comparisons of the discarded bits: the reference
   for the codec's branch-free carry rounding. *)
let fp16_encode_reference (x : int) =
  let sign = (x lsr 16) land 0x8000 in
  let e = (x lsr 23) land 0xff in
  let m = x land 0x7fffff in
  let rne q rem half = if rem > half || (rem = half && q land 1 = 1) then q + 1 else q in
  if e = 255 then sign lor 0x7c00 lor (if m <> 0 then 0x200 else 0)
  else
    let e' = e - 112 in
    if e' >= 31 then sign lor 0x7c00
    else if e' <= 0 then
      if e' < -10 then sign
      else
        let m = m lor 0x800000 and shift = 14 - e' in
        sign lor rne (m lsr shift) (m land ((1 lsl shift) - 1)) (1 lsl (shift - 1))
    else
      sign lor rne ((e' lsl 10) lor (m lsr 13)) (m land 0x1fff) 0x1000

let test_fp16_encode_matches_reference () =
  (* Every sign and binary32 exponent, with the discarded bits at and
     around the rounding tie for that exponent's shift. *)
  for sign = 0 to 1 do
    for e = 0 to 255 do
      let shift = if e - 112 >= 1 then 13 else min 24 (max 14 (126 - e)) in
      let half = 1 lsl (shift - 1) in
      for q = 0 to 0x7fffff lsr shift do
        List.iter
          (fun rem ->
            let x = (sign lsl 31) lor (e lsl 23) lor (((q lsl shift) lor rem) land 0x7fffff) in
            let got = Fp16.of_float32_bits x and want = fp16_encode_reference x in
            if got <> want then
              Alcotest.failf "fp16 encode %#x: %#x, want %#x" x got want)
          [ 0; 1; half - 1; half; half + 1; (2 * half) - 1 ]
      done
    done
  done

(* The closed-form binary16 decode, with [2. ** ...] per call: the
   formula the codec's power-of-two table must reproduce bit for bit. *)
let fp16_decode_formula h =
  let sign = if h land 0x8000 <> 0 then -1.0 else 1.0 in
  let e = (h lsr 10) land 0x1f in
  let m = h land 0x3ff in
  if e = 31 then if m <> 0 then Float.nan else sign *. Float.infinity
  else if e = 0 then sign *. Float.of_int m *. (2. ** -24.)
  else sign *. Float.of_int (m lor 0x400) *. (2. ** Float.of_int (e - 25))

let test_fp16_decode_matches_formula () =
  for h = 0 to 0xffff do
    let got = Int64.bits_of_float (Fp16.to_float h)
    and want = Int64.bits_of_float (fp16_decode_formula h) in
    if not (Int64.equal got want) then
      Alcotest.failf "fp16 decode %#x: table %Lx, formula %Lx" h got want
  done

let prop_fp16_idempotent =
  QCheck.Test.make ~name:"fp16 round idempotent" ~count:2000
    QCheck.(float_range (-70000.0) 70000.0)
    (fun f -> Float.equal (Fp16.round (Fp16.round f)) (Fp16.round f))

let prop_fp16_monotone =
  QCheck.Test.make ~name:"fp16 round monotone" ~count:2000
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0))
    (fun (a, b) ->
      let a, b = if a <= b then (a, b) else (b, a) in
      Fp16.round a <= Fp16.round b)

let prop_fp16_error_bound =
  QCheck.Test.make ~name:"fp16 relative error <= 2^-11" ~count:2000
    QCheck.(float_range 1e-3 60000.0)
    (fun f -> Float.abs (Fp16.round f -. f) <= Float.abs f *. (2. ** -11.) +. 1e-30)

(* ------------------------------------------------------------------ *)
(* FP8 E4M3                                                           *)
(* ------------------------------------------------------------------ *)

let test_fp8_known_values () =
  let cases =
    [ (0.0, 0x00); (1.0, 0x38); (-1.0, 0xb8); (2.0, 0x40); (448.0, 0x7e);
      (0.5, 0x30); (2. ** -9., 0x01); (2. ** -6., 0x08); (1.5, 0x3c) ]
  in
  List.iter
    (fun (f, bits) ->
      Alcotest.(check int) (Printf.sprintf "encode %g" f) bits (Fp8.of_float f))
    cases

let test_fp8_saturation () =
  Alcotest.(check int) "satfinite" 0x7e (Fp8.of_float 1e9);
  Alcotest.(check int) "satfinite inf" 0x7e (Fp8.of_float Float.infinity);
  Alcotest.(check int) "neg satfinite" 0xfe (Fp8.of_float Float.neg_infinity);
  check_float "448 stays" 448.0 (Fp8.round 448.0)

let test_fp8_nan () =
  Alcotest.(check int) "nan bits" 0x7f (Fp8.of_float Float.nan);
  Alcotest.(check bool) "decode nan" true (Float.is_nan (Fp8.to_float 0x7f));
  Alcotest.(check bool) "decode nan neg" true (Float.is_nan (Fp8.to_float 0xff))

let test_fp8_exhaustive_roundtrip () =
  for bits = 0 to 0xff do
    if not (Fp8.is_nan bits) then begin
      let f = Fp8.to_float bits in
      let bits' = Fp8.of_float f in
      (* +0 and -0 may alias; compare decoded values. *)
      if not (Float.equal (Fp8.to_float bits') f) then
        Alcotest.failf "fp8 roundtrip: %#x -> %g -> %#x" bits f bits'
    end
  done

(* The closed-form E4M3 decode the lookup table must reproduce. *)
let fp8_decode_formula b =
  if b land 0x7f = 0x7f then Float.nan
  else
    let sign = if b land 0x80 <> 0 then -1.0 else 1.0 in
    let e = (b lsr 3) land 0xf in
    let m = b land 0x7 in
    if e = 0 then sign *. Float.of_int m *. (2. ** -9.)
    else sign *. Float.of_int (m lor 0x8) *. (2. ** Float.of_int (e - 10))

let test_fp8_decode_matches_formula () =
  for b = 0 to 0xff do
    let got = Int64.bits_of_float (Fp8.to_float b)
    and want = Int64.bits_of_float (fp8_decode_formula b) in
    if not (Int64.equal got want) then
      Alcotest.failf "fp8 decode %#x: table %Lx, formula %Lx" b got want;
    (* round = decode of the encoded code, whatever the input. *)
    let f = fp8_decode_formula b *. 1.0625 in
    let got = Int64.bits_of_float (Fp8.round f)
    and want = Int64.bits_of_float (fp8_decode_formula (Fp8.of_float f)) in
    if not (Int64.equal got want) then
      Alcotest.failf "fp8 round %h: %Lx, want %Lx" f got want
  done

let prop_fp8_idempotent =
  QCheck.Test.make ~name:"fp8 round idempotent" ~count:2000
    QCheck.(float_range (-500.0) 500.0)
    (fun f -> Float.equal (Fp8.round (Fp8.round f)) (Fp8.round f))

let prop_fp8_nearest =
  (* The chosen code is at least as close as every other code. *)
  QCheck.Test.make ~name:"fp8 encodes to nearest" ~count:500
    QCheck.(float_range (-450.0) 450.0)
    (fun f ->
      let e = Fp8.round f in
      let d = Float.abs (e -. f) in
      let ok = ref true in
      for b = 0 to 0xff do
        if not (Fp8.is_nan b) then begin
          let v = Fp8.to_float b in
          if Float.abs (v -. f) < d -. 1e-12 then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tensor                                                             *)
(* ------------------------------------------------------------------ *)

let test_tensor_create_get_set () =
  let t = Tensor.create [| 2; 3 |] in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Tensor.set t [| 1; 2 |] 42.0;
  check_float "get back" 42.0 (Tensor.get t [| 1; 2 |]);
  check_float "other zero" 0.0 (Tensor.get t [| 0; 0 |])

let test_tensor_oob () =
  let t = Tensor.create [| 2; 3 |] in
  Alcotest.check_raises "oob"
    (Invalid_argument
       "Tensor.linear_index: index 3 out of bounds for dim 1 (size 3)")
    (fun () -> ignore (Tensor.get t [| 0; 3 |]))

let test_tensor_quantization () =
  let t = Tensor.create ~dtype:Dtype.F16 [| 1 |] in
  Tensor.set t [| 0 |] (1.0 +. (2. ** -12.));
  check_float "quantized to f16" 1.0 (Tensor.get t [| 0 |]);
  let t8 = Tensor.create ~dtype:Dtype.F8E4M3 [| 1 |] in
  Tensor.set t8 [| 0 |] 3.1;
  check_float "quantized to f8" 3.0 (Tensor.get t8 [| 0 |])

let test_tensor_init_iteri () =
  let t = Tensor.init [| 3; 4 |] (fun idx -> Float.of_int ((idx.(0) * 10) + idx.(1))) in
  check_float "init value" 23.0 (Tensor.get t [| 2; 3 |]);
  let count = ref 0 in
  Tensor.iteri
    (fun idx v ->
      incr count;
      check_float "iteri consistent" (Float.of_int ((idx.(0) * 10) + idx.(1))) v)
    t;
  Alcotest.(check int) "iteri count" 12 !count

let test_tensor_slice_blit () =
  let src = Tensor.init [| 4; 4 |] (fun i -> Float.of_int ((i.(0) * 4) + i.(1))) in
  let tile = Tensor.slice2 src ~r0:1 ~c0:2 ~rows:2 ~cols:2 in
  check_float "slice [0,0]" 6.0 (Tensor.get2 tile 0 0);
  check_float "slice [1,1]" 11.0 (Tensor.get2 tile 1 1);
  (* Out-of-bounds slice reads zero. *)
  let edge = Tensor.slice2 src ~r0:3 ~c0:3 ~rows:2 ~cols:2 in
  check_float "in-bounds corner" 15.0 (Tensor.get2 edge 0 0);
  check_float "oob fill" 0.0 (Tensor.get2 edge 1 1);
  let dst = Tensor.create [| 4; 4 |] in
  Tensor.blit2 ~dst ~r0:2 ~c0:2 tile;
  check_float "blit" 6.0 (Tensor.get2 dst 2 2);
  (* Clipping blit must not raise. *)
  Tensor.blit2 ~dst ~r0:3 ~c0:3 tile;
  check_float "clipped blit" 6.0 (Tensor.get2 dst 3 3)

let test_tensor_transpose () =
  let t = Tensor.init [| 2; 3 |] (fun i -> Float.of_int ((i.(0) * 3) + i.(1))) in
  let tt = Tensor.transpose2 t in
  Alcotest.(check (array int)) "shape" [| 3; 2 |] (Tensor.shape tt);
  check_float "transposed" (Tensor.get2 t 0 2) (Tensor.get2 tt 2 0)

let test_tensor_cast () =
  let t = Tensor.init [| 2 |] (fun i -> if i.(0) = 0 then 1.0001 else 300.0) in
  let h = Tensor.cast Dtype.F8E4M3 t in
  check_float "cast quantizes" 1.0 (Tensor.get h [| 0 |]);
  (* E4M3 neighbours of 300 are 288 and 320; 288 is nearer. *)
  check_float "cast 300->288" 288.0 (Tensor.get h [| 1 |])

let test_tensor_random_deterministic () =
  let a = Tensor.random ~seed:7 [| 8; 8 |] in
  let b = Tensor.random ~seed:7 [| 8; 8 |] in
  Alcotest.(check bool) "same seed same data" true (Tensor.equal a b);
  let c = Tensor.random ~seed:8 [| 8; 8 |] in
  Alcotest.(check bool) "different seed" false (Tensor.equal a c)

let prop_tile_add_comm =
  QCheck.Test.make ~name:"tile_binop Add commutative" ~count:200
    QCheck.(pair small_int small_int)
    (fun (sa, sb) ->
      let a = Tensor.random ~seed:(sa + 1) [| 4; 4 |] in
      let b = Tensor.random ~seed:(sb + 1000) [| 4; 4 |] in
      Tensor.equal (Interp.tile_binop Op.Add a b) (Interp.tile_binop Op.Add b a))

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let t = Tensor.random ~seed:(r + (c * 100)) [| r; c |] in
      Tensor.equal t (Tensor.transpose2 (Tensor.transpose2 t)))

(* ------------------------------------------------------------------ *)
(* Reference kernels                                                  *)
(* ------------------------------------------------------------------ *)

let test_gemm_identity () =
  let n = 8 in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| n; n |] in
  let id = Tensor.init ~dtype:Dtype.F16 [| n; n |] (fun i -> if i.(0) = i.(1) then 1.0 else 0.0) in
  let c = Reference.gemm a id in
  Alcotest.(check bool) "A * I = A" true (Tensor.approx_equal ~tol:1e-6 a c)

let test_gemm_known () =
  let a = Tensor.init [| 2; 2 |] (fun i -> Float.of_int ((i.(0) * 2) + i.(1) + 1)) in
  (* [[1;2];[3;4]] * [[1;2];[3;4]] = [[7;10];[15;22]] *)
  let c = Reference.gemm ~out_dtype:Dtype.F32 a a in
  check_float "c00" 7.0 (Tensor.get2 c 0 0);
  check_float "c01" 10.0 (Tensor.get2 c 0 1);
  check_float "c10" 15.0 (Tensor.get2 c 1 0);
  check_float "c11" 22.0 (Tensor.get2 c 1 1)

let test_gemm_rect () =
  let a = Tensor.random ~seed:2 [| 3; 5 |] and b = Tensor.random ~seed:3 [| 5; 7 |] in
  let c = Reference.gemm ~out_dtype:Dtype.F32 a b in
  Alcotest.(check (array int)) "shape" [| 3; 7 |] (Tensor.shape c);
  (* Spot-check one entry. *)
  let expect = ref 0.0 in
  for p = 0 to 4 do
    expect := !expect +. (Tensor.get2 a 2 p *. Tensor.get2 b p 6)
  done;
  Alcotest.(check (float 1e-6)) "entry" !expect (Tensor.get2 c 2 6)

let prop_gemm_linear =
  (* (alpha A) B = alpha (A B) in f32. *)
  QCheck.Test.make ~name:"gemm scalar linearity" ~count:50
    QCheck.(pair (int_range 1 6) (float_range (-2.0) 2.0))
    (fun (n, alpha) ->
      let a = Tensor.random ~seed:n [| n; n |] in
      let b = Tensor.random ~seed:(n + 77) [| n; n |] in
      let sa = oracle_map (fun x -> alpha *. x) a in
      let lhs = Reference.gemm ~out_dtype:Dtype.F32 sa b in
      let rhs =
        oracle_map (fun x -> alpha *. x) (Reference.gemm ~out_dtype:Dtype.F32 a b)
      in
      Tensor.max_abs_diff lhs rhs < 1e-4)

let test_softmax_rows_sum_to_one () =
  let x = Tensor.random ~seed:11 ~lo:(-5.0) ~hi:5.0 [| 6; 9 |] in
  let s = Reference.softmax x in
  for i = 0 to 5 do
    let sum = ref 0.0 in
    for j = 0 to 8 do
      sum := !sum +. Tensor.get2 s i j
    done;
    (* Entries are stored at single precision, so allow f32-level error. *)
    Alcotest.(check (float 1e-6)) "row sums to 1" 1.0 !sum
  done

let test_softmax_stability () =
  (* Large logits must not overflow. *)
  let x = Tensor.init [| 1; 3 |] (fun i -> 1e4 +. Float.of_int i.(1)) in
  let s = Reference.softmax x in
  Alcotest.(check bool) "finite" true (Float.is_finite (Tensor.get2 s 0 0))

let test_attention_online_matches_direct () =
  List.iter
    (fun causal ->
      let l = 24 and d = 8 in
      let q = Tensor.random ~dtype:Dtype.F16 ~seed:21 [| l; d |] in
      let k = Tensor.random ~dtype:Dtype.F16 ~seed:22 [| l; d |] in
      let v = Tensor.random ~dtype:Dtype.F16 ~seed:23 [| l; d |] in
      let direct = Reference.attention ~causal ~out_dtype:Dtype.F32 ~q ~k ~v () in
      let online =
        Reference.attention_online ~causal ~out_dtype:Dtype.F32 ~block:7 ~q ~k ~v ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "online = direct (causal=%b)" causal)
        true
        (Tensor.max_abs_diff direct online < 1e-4))
    [ false; true ]

let test_attention_uniform_values () =
  (* With V constant, attention output is that constant regardless of scores. *)
  let l = 10 and d = 4 in
  let q = Tensor.random ~seed:31 [| l; d |] in
  let k = Tensor.random ~seed:32 [| l; d |] in
  let v = Tensor.init [| l; d |] (fun _ -> 0.75) in
  let o = Reference.attention ~out_dtype:Dtype.F32 ~q ~k ~v () in
  Alcotest.(check bool) "constant out" true (Tensor.max_abs_diff o v < 1e-9)

let test_causal_first_row () =
  (* Row 0 of causal attention attends only to position 0: output = V[0]. *)
  let l = 6 and d = 3 in
  let q = Tensor.random ~seed:41 [| l; d |] in
  let k = Tensor.random ~seed:42 [| l; d |] in
  let v = Tensor.random ~seed:43 [| l; d |] in
  let o = Reference.attention ~causal:true ~out_dtype:Dtype.F32 ~q ~k ~v () in
  for p = 0 to d - 1 do
    Alcotest.(check (float 1e-9)) "row0 = v0" (Tensor.get2 v 0 p) (Tensor.get2 o 0 p)
  done

let test_flop_counts () =
  Alcotest.(check (float 1.0)) "gemm flops" 2e9
    (Reference.gemm_flops ~m:1000 ~n:1000 ~k:1000);
  let f = Reference.attention_flops ~batch:2 ~heads:4 ~len:128 ~head_dim:64 () in
  Alcotest.(check (float 1.0)) "mha flops" (4.0 *. 128. *. 128. *. 64. *. 8.) f;
  let fc = Reference.attention_flops ~causal:true ~batch:2 ~heads:4 ~len:128 ~head_dim:64 () in
  Alcotest.(check (float 1.0)) "causal halves" (f /. 2.0) fc

(* ------------------------------------------------------------------ *)
(* Bulk contiguous-slice kernels vs scalar get_flat/set_flat loops     *)
(* ------------------------------------------------------------------ *)

(* The vectorized span kernels (blit/axpy/store/reduce over contiguous
   payload slices) must be bit-identical to the per-element accessor
   loops they replaced, across dtypes and at deliberately non-aligned
   offsets. Spans live inside 1-D tensors of length 40 with offsets up
   to 9 and lengths up to 24, so every case exercises interior,
   unaligned windows. *)

let slice_dt = function 0 -> Dtype.F32 | 1 -> Dtype.F16 | _ -> Dtype.F8E4M3

(* ((src dtype, dst dtype), ((len, (soff, doff)), seed)) *)
let slice_args =
  QCheck.(
    pair
      (pair (int_range 0 2) (int_range 0 2))
      (pair (pair (int_range 0 24) (pair (int_range 0 9) (int_range 0 9))) small_int))

let slice_tensors ~sdt ~ddt ~seed =
  let src = Tensor.random ~dtype:sdt ~seed:(seed + 1) ~lo:(-4.0) ~hi:4.0 [| 40 |] in
  let dst = Tensor.random ~dtype:ddt ~seed:(seed + 7777) ~lo:(-4.0) ~hi:4.0 [| 40 |] in
  (src, dst)

let prop_blit_slice_matches_scalar =
  QCheck.Test.make ~name:"blit_slice = scalar set_flat loop" ~count:400 slice_args
    (fun ((si, di), ((len, (soff, doff)), seed)) ->
      let src, dst = slice_tensors ~sdt:(slice_dt si) ~ddt:(slice_dt di) ~seed in
      let expect = Tensor.cast (Tensor.dtype dst) dst in
      for i = 0 to len - 1 do
        Tensor.set_flat expect (doff + i) (Tensor.get_flat src (soff + i))
      done;
      Tensor.blit_slice ~src ~soff ~dst ~doff ~len;
      Tensor.equal dst expect)

let prop_axpy_slice_matches_scalar =
  QCheck.Test.make ~name:"axpy_slice = scalar set_flat loop" ~count:400
    QCheck.(pair slice_args (float_range (-2.0) 2.0))
    (fun (((si, di), ((len, (soff, doff)), seed)), alpha) ->
      let src, dst = slice_tensors ~sdt:(slice_dt si) ~ddt:(slice_dt di) ~seed in
      let expect = Tensor.cast (Tensor.dtype dst) dst in
      for i = 0 to len - 1 do
        Tensor.set_flat expect (doff + i)
          (Tensor.get_flat expect (doff + i)
          +. (alpha *. Tensor.get_flat src (soff + i)))
      done;
      Tensor.axpy_slice ~alpha ~src ~soff ~dst ~doff ~len;
      Tensor.equal dst expect)

let prop_axpy_raw_matches_scalar =
  QCheck.Test.make ~name:"axpy_raw = scalar float loop" ~count:400
    QCheck.(pair slice_args (float_range (-2.0) 2.0))
    (fun (((_, _), ((len, (soff, doff)), seed)), alpha) ->
      let src, dst = slice_tensors ~sdt:Dtype.F32 ~ddt:Dtype.F32 ~seed in
      let expect = Array.copy dst.Tensor.data in
      for i = 0 to len - 1 do
        expect.(doff + i) <-
          expect.(doff + i) +. (alpha *. src.Tensor.data.(soff + i))
      done;
      Tensor.axpy_raw ~alpha src.Tensor.data ~soff dst.Tensor.data ~doff ~len;
      dst.Tensor.data = expect)

let prop_store_slice_matches_scalar =
  QCheck.Test.make ~name:"store_slice = quantizing set_flat loop" ~count:400
    slice_args
    (fun ((_, di), ((len, (soff, doff)), seed)) ->
      (* Raw (unquantized) f32 source span into a quantizing payload. *)
      let raw = Tensor.random ~dtype:Dtype.F32 ~seed:(seed + 3) ~lo:(-4.0) ~hi:4.0 [| 40 |] in
      let _, dst = slice_tensors ~sdt:Dtype.F32 ~ddt:(slice_dt di) ~seed in
      let expect = Tensor.cast (Tensor.dtype dst) dst in
      for i = 0 to len - 1 do
        Tensor.set_flat expect (doff + i) raw.Tensor.data.(soff + i)
      done;
      Tensor.store_slice ~dst ~doff raw.Tensor.data ~soff ~len;
      Tensor.equal dst expect)

let prop_reduce_slice_matches_scalar =
  QCheck.Test.make ~name:"reduce_slice = quantizing fold (sum, max)" ~count:400
    slice_args
    (fun ((si, _), ((len, (soff, _)), seed)) ->
      let dt = slice_dt si in
      let t, _ = slice_tensors ~sdt:dt ~ddt:dt ~seed in
      List.for_all
        (fun f ->
          let init = Tensor.quantize dt 0.0 in
          let expect = ref init in
          for i = 0 to len - 1 do
            expect := Tensor.quantize dt (f !expect (Tensor.get_flat t (soff + i)))
          done;
          Tensor.reduce_slice f ~init t ~off:soff ~len = !expect)
        [ ( +. ); Float.max ])

let prop_cast_matches_scalar =
  QCheck.Test.make ~name:"cast = per-element quantize" ~count:200
    QCheck.(pair (pair (int_range 0 2) (int_range 0 2)) small_int)
    (fun ((si, di), seed) ->
      let t = Tensor.random ~dtype:(slice_dt si) ~seed:(seed + 5) ~lo:(-4.0) ~hi:4.0 [| 7; 5 |] in
      let out = Tensor.cast (slice_dt di) t in
      let expect = Tensor.create ~dtype:(slice_dt di) [| 7; 5 |] in
      for i = 0 to Tensor.numel t - 1 do
        Tensor.set_flat expect i (Tensor.get_flat t i)
      done;
      Tensor.equal out expect)

let prop_gemm_bit_identical_to_textbook =
  (* Reference.gemm's k-outer row-axpy form performs, per output
     element, the identical p-ascending add sequence and single final
     quantize as the textbook i-j-p loop — bit-for-bit. *)
  QCheck.Test.make ~name:"gemm k-outer = textbook i-j-p, bit-identical" ~count:60
    QCheck.(pair (pair (int_range 1 9) (pair (int_range 1 9) (int_range 1 9))) small_int)
    (fun ((m, (n, k)), seed) ->
      let a = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 11) [| m; k |] in
      let b = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 13) [| k; n |] in
      let expect = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for p = 0 to k - 1 do
            acc := !acc +. (Tensor.get2 a i p *. Tensor.get2 b p j)
          done;
          Tensor.set2 expect i j !acc
        done
      done;
      Tensor.equal (Reference.gemm a b) expect)

(* ------------------------------------------------------------------ *)
(* First-order tile kernels vs the closure-per-element oracle          *)
(* ------------------------------------------------------------------ *)

let all_dtypes = [| Dtype.F32; F16; F8E4M3; I32; I1 |]

let binops = [ Op.Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor ]
let unops = [ Op.Neg; Exp; Exp2; Log; Log2; Sqrt; Rsqrt; Abs; Not ]
let cmps = [ Op.Eq; Ne; Lt; Le; Gt; Ge ]

(* NaN, signed zeros, infinities, f16 subnormals and the f16 extremes:
   the values where [Float.max]/[Float.min], the codecs' rounding and
   the integer conversions have their edge cases. *)
let specials =
  [| Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity;
     Fp16.min_positive_subnormal; -3.0 *. Fp16.min_positive_subnormal;
     0.5 *. Fp16.min_positive_normal; 65504.0; -65520.0; 1.0; -1.0 |]

(* A [dtype] tensor mixing uniform values in [-4, 4] with [specials]
   (one element in [special_every]), stored through the quantizing
   accessor so the payload holds only values representable at [dtype]. *)
let mixed_tensor ?(special_every = 4) ~dtype ~seed shape =
  let st = Random.State.make [| seed |] in
  let t = Tensor.create ~dtype shape in
  for i = 0 to Tensor.numel t - 1 do
    Tensor.set_flat t i
      (if Random.State.int st special_every = 0 then
         specials.(Random.State.int st (Array.length specials))
       else Random.State.float st 8.0 -. 4.0)
  done;
  t

let bits_equal (a : Tensor.t) (b : Tensor.t) =
  Tensor.dtype a = Tensor.dtype b
  && Tensor.shape a = Tensor.shape b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Tensor.data b.Tensor.data

let oracle_cmp kind a b =
  let out = Tensor.create ~dtype:Dtype.I1 (Tensor.shape a) in
  for i = 0 to Tensor.numel a - 1 do
    Tensor.set_flat out i
      (if Interp.cmp_pred kind (Tensor.get_flat a i) (Tensor.get_flat b i) then 1.0
       else 0.0)
  done;
  out

let oracle_select c a b =
  let out = Tensor.create ~dtype:(Tensor.dtype a) (Tensor.shape a) in
  for i = 0 to Tensor.numel a - 1 do
    Tensor.set_flat out i
      (if Tensor.get_flat c i <> 0.0 then Tensor.get_flat a i else Tensor.get_flat b i)
  done;
  out

let oracle_dot a b acc =
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 and n = Tensor.dim b 1 in
  let out = Tensor.create ~dtype:(Tensor.dtype acc) [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let s = ref (Tensor.get2 acc i j) in
      for p = 0 to k - 1 do
        s := !s +. (Tensor.get2 a i p *. Tensor.get2 b p j)
      done;
      Tensor.set2 out i j !s
    done
  done;
  out

let oracle_broadcast t target =
  let src = Tensor.shape t in
  Tensor.init ~dtype:(Tensor.dtype t) target (fun idx ->
      Tensor.get t (Array.mapi (fun i x -> if src.(i) = 1 then 0 else x) idx))

(* Fold every element into its output cell through [get]/[set], which
   requantizes the accumulator at every step. *)
let oracle_reduce kind axis t =
  let init, f =
    match (kind : Op.reduce_kind) with
    | Red_max -> (Float.neg_infinity, Float.max)
    | Red_min -> (Float.infinity, Float.min)
    | Red_sum -> (0.0, ( +. ))
  in
  let shape = Tensor.shape t in
  let out_shape =
    Array.of_list (List.filteri (fun i _ -> i <> axis) (Array.to_list shape))
  in
  let out = Tensor.create ~dtype:(Tensor.dtype t) out_shape in
  Tensor.fill out init;
  Tensor.iteri
    (fun idx v ->
      let oidx =
        Array.of_list (List.filteri (fun i _ -> i <> axis) (Array.to_list idx))
      in
      Tensor.set out oidx (f (Tensor.get out oidx) v))
    t;
  out

let shape_args = QCheck.(pair small_int (pair (int_range 1 6) (int_range 1 9)))

let prop_tile_binop_matches_oracle =
  QCheck.Test.make ~name:"tile_binop = closure-per-element map2 (every op, dtype)"
    ~count:60 shape_args
    (fun (seed, (r, c)) ->
      Array.for_all
        (fun da ->
          Array.for_all
            (fun db ->
              let a = mixed_tensor ~dtype:da ~seed [| r; c |] in
              let b = mixed_tensor ~dtype:db ~seed:(seed + 101) [| r; c |] in
              List.for_all
                (fun op ->
                  bits_equal (Interp.tile_binop op a b)
                    (oracle_map2 (Interp.float_binop op) a b))
                binops)
            all_dtypes)
        all_dtypes)

let prop_tile_unop_matches_oracle =
  QCheck.Test.make ~name:"tile_unop = closure-per-element map (every op, dtype)"
    ~count:100 shape_args
    (fun (seed, (r, c)) ->
      Array.for_all
        (fun dt ->
          let t = mixed_tensor ~dtype:dt ~seed [| r; c |] in
          List.for_all
            (fun op ->
              bits_equal (Interp.tile_unop op t) (oracle_map (Interp.float_unop op) t))
            unops)
        all_dtypes)

let prop_tile_cmp_select_match_oracle =
  QCheck.Test.make ~name:"tile_cmp, tile_select = per-element oracle (every dtype)"
    ~count:60 shape_args
    (fun (seed, (r, c)) ->
      Array.for_all
        (fun da ->
          Array.for_all
            (fun db ->
              let a = mixed_tensor ~dtype:da ~seed [| r; c |] in
              let b = mixed_tensor ~dtype:db ~seed:(seed + 7) [| r; c |] in
              let cond = mixed_tensor ~dtype:db ~seed:(seed + 13) [| r; c |] in
              List.for_all
                (fun op -> bits_equal (Interp.tile_cmp op a b) (oracle_cmp op a b))
                cmps
              && bits_equal (Interp.tile_select cond a b) (oracle_select cond a b))
            all_dtypes)
        all_dtypes)

let prop_dot_tiles_matches_oracle =
  (* m, k in 1..33 and n in 1..33, so the 4-column blocks leave every
     remainder width. *)
  QCheck.Test.make ~name:"dot_tiles = textbook i-j-p loop, bit-identical"
    ~count:150
    QCheck.(
      pair (pair (int_range 1 33) (pair (int_range 1 33) (int_range 1 33)))
        (pair small_int (pair (int_range 0 4) (int_range 0 4))))
    (fun ((m, (n, k)), (seed, (di, dacc))) ->
      let dt = all_dtypes.(di) and acc_dt = all_dtypes.(dacc) in
      let a = mixed_tensor ~special_every:64 ~dtype:dt ~seed [| m; k |] in
      let b = mixed_tensor ~special_every:64 ~dtype:dt ~seed:(seed + 1) [| k; n |] in
      let acc = mixed_tensor ~special_every:64 ~dtype:acc_dt ~seed:(seed + 2) [| m; n |] in
      bits_equal (Interp.dot_tiles a b acc) (oracle_dot a b acc))

let prop_broadcast_matches_oracle =
  QCheck.Test.make ~name:"broadcast_to = per-element index decode (row, column, n-D)"
    ~count:100
    QCheck.(pair shape_args (pair (int_range 1 4) (int_range 0 7)))
    (fun ((seed, (r, c)), (p, mask)) ->
      let one bit d = if mask land bit <> 0 then 1 else d in
      Array.for_all
        (fun dt ->
          List.for_all
            (fun (src, target) ->
              let t = mixed_tensor ~dtype:dt ~seed src in
              bits_equal
                (Interp.broadcast_to t (Array.to_list target))
                (oracle_broadcast t target))
            [ ([| 1; c |], [| r; c |]); ([| r; 1 |], [| r; c |]);
              ([| 1; 1 |], [| r; c |]); ([| r; c |], [| r; c |]);
              ([| one 1 p; one 2 r; one 4 c |], [| p; r; c |]) ])
        all_dtypes)

let prop_reduce_matches_oracle =
  QCheck.Test.make ~name:"reduce_tensor = per-step requantizing fold (every axis)"
    ~count:100
    QCheck.(pair shape_args (int_range 1 4))
    (fun ((seed, (r, c)), p) ->
      Array.for_all
        (fun dt ->
          List.for_all
            (fun kind ->
              List.for_all
                (fun (shape, axis) ->
                  let t = mixed_tensor ~dtype:dt ~seed shape in
                  bits_equal
                    (Interp.reduce_tensor kind axis t)
                    (oracle_reduce kind axis t))
                [ ([| r; c |], 1); ([| r; c |], 0); ([| p; r; c |], 2);
                  ([| p; r; c |], 1); ([| c |], 0) ])
            [ Op.Red_max; Red_min; Red_sum ])
        all_dtypes)

let prop_layout_kernels_match_oracle =
  QCheck.Test.make ~name:"transpose2, reshape, tile_iota = per-element oracle"
    ~count:100 shape_args
    (fun (seed, (r, c)) ->
      Array.for_all
        (fun dt ->
          let t = mixed_tensor ~dtype:dt ~seed [| r; c |] in
          bits_equal (Tensor.transpose2 t)
            (Tensor.init ~dtype:dt [| c; r |] (fun i -> Tensor.get2 t i.(1) i.(0)))
          && bits_equal (Tensor.reshape t [| c; r |])
               (Tensor.init ~dtype:dt [| c; r |] (fun i ->
                    Tensor.get_flat t ((i.(0) * r) + i.(1)))))
        all_dtypes
      && bits_equal (Interp.tile_iota (r * c))
           (Tensor.init ~dtype:Dtype.I32 [| r * c |] (fun i -> Float.of_int i.(0))))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "tensor.dtype",
      [
        Alcotest.test_case "sizes" `Quick test_dtype_sizes;
        Alcotest.test_case "strings" `Quick test_dtype_strings;
        Alcotest.test_case "classes" `Quick test_dtype_classes;
      ] );
    ( "tensor.fp16",
      [
        Alcotest.test_case "known values" `Quick test_fp16_known_values;
        Alcotest.test_case "overflow" `Quick test_fp16_overflow;
        Alcotest.test_case "underflow" `Quick test_fp16_underflow;
        Alcotest.test_case "nan" `Quick test_fp16_nan;
        Alcotest.test_case "round to even" `Quick test_fp16_round_to_even;
        Alcotest.test_case "exhaustive roundtrip" `Quick test_fp16_exhaustive_roundtrip;
        Alcotest.test_case "two-step rounding" `Quick test_fp16_two_step_rounding;
        Alcotest.test_case "carry rounding = compare-based RNE" `Quick
          test_fp16_encode_matches_reference;
        Alcotest.test_case "decode table = formula (65536 codes)" `Quick
          test_fp16_decode_matches_formula;
      ] );
    qsuite "tensor.fp16.props" [ prop_fp16_idempotent; prop_fp16_monotone; prop_fp16_error_bound ];
    ( "tensor.fp8",
      [
        Alcotest.test_case "known values" `Quick test_fp8_known_values;
        Alcotest.test_case "saturation" `Quick test_fp8_saturation;
        Alcotest.test_case "nan" `Quick test_fp8_nan;
        Alcotest.test_case "exhaustive roundtrip" `Quick test_fp8_exhaustive_roundtrip;
        Alcotest.test_case "decode table = formula (256 codes)" `Quick
          test_fp8_decode_matches_formula;
      ] );
    qsuite "tensor.fp8.props" [ prop_fp8_idempotent; prop_fp8_nearest ];
    ( "tensor.core",
      [
        Alcotest.test_case "create/get/set" `Quick test_tensor_create_get_set;
        Alcotest.test_case "out of bounds" `Quick test_tensor_oob;
        Alcotest.test_case "quantization on set" `Quick test_tensor_quantization;
        Alcotest.test_case "init/iteri" `Quick test_tensor_init_iteri;
        Alcotest.test_case "slice/blit" `Quick test_tensor_slice_blit;
        Alcotest.test_case "transpose" `Quick test_tensor_transpose;
        Alcotest.test_case "cast" `Quick test_tensor_cast;
        Alcotest.test_case "random deterministic" `Quick test_tensor_random_deterministic;
      ] );
    qsuite "tensor.core.props" [ prop_tile_add_comm; prop_transpose_involution ];
    ( "tensor.reference",
      [
        Alcotest.test_case "gemm identity" `Quick test_gemm_identity;
        Alcotest.test_case "gemm known" `Quick test_gemm_known;
        Alcotest.test_case "gemm rectangular" `Quick test_gemm_rect;
        Alcotest.test_case "softmax rows" `Quick test_softmax_rows_sum_to_one;
        Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
        Alcotest.test_case "attention online=direct" `Quick test_attention_online_matches_direct;
        Alcotest.test_case "attention uniform V" `Quick test_attention_uniform_values;
        Alcotest.test_case "causal first row" `Quick test_causal_first_row;
        Alcotest.test_case "flop counts" `Quick test_flop_counts;
      ] );
    qsuite "tensor.reference.props" [ prop_gemm_linear ];
    qsuite "tensor.slices.props"
      [ prop_blit_slice_matches_scalar; prop_axpy_slice_matches_scalar;
        prop_axpy_raw_matches_scalar; prop_store_slice_matches_scalar;
        prop_reduce_slice_matches_scalar; prop_cast_matches_scalar;
        prop_gemm_bit_identical_to_textbook; prop_tile_binop_matches_oracle;
        prop_tile_unop_matches_oracle; prop_tile_cmp_select_match_oracle;
        prop_dot_tiles_matches_oracle; prop_broadcast_matches_oracle;
        prop_reduce_matches_oracle; prop_layout_kernels_match_oracle ];
  ]
