(** IEEE 754 binary16 (half precision) software codec.

    The simulator carries tile payloads as OCaml [float]s but quantizes
    them through this codec whenever a value is materialized with dtype
    f16, so that compiled kernels are verified against references at the
    precision the hardware would use.

    Rounding rule: [of_float] models an FP32 value converted by
    [cvt.rn.f16.f32]. It rounds twice, each step to nearest-even:
    first binary64 -> binary32 (the value an FP32 register would hold),
    then binary32 -> binary16. Two-step rounding is not the same as one
    direct binary64 -> binary16 step: [1 + 2^-11 + 2^-40] first rounds
    to the binary32 tie [1 + 2^-11], which then ties to even at [1.0],
    while a single step would give [1 + 2^-10]. The simulator keeps the
    two-step rule because the hardware it models converts FP32
    accumulators, never binary64 values. *)

(* A half-precision value is represented by its 16-bit pattern. *)
type bits = int

let sign_mask = 0x8000
let exp_mask = 0x7c00
let man_mask = 0x03ff

let pos_inf : bits = 0x7c00
let neg_inf : bits = 0xfc00
let nan_bits : bits = 0x7e00
let max_finite_bits : bits = 0x7bff (* 65504.0 *)

let is_nan (h : bits) = h land 0x7fff > exp_mask
let is_inf (h : bits) = h land 0x7fff = exp_mask

(* [rne m shift] is [m lsr shift] rounded to nearest, ties to even,
   without a data-dependent branch: adding [half - 1] plus the kept
   lsb carries into the kept bits exactly when the discarded bits
   exceed half, or equal half with an odd lsb. *)
let[@inline] rne m shift =
  (m + ((1 lsl (shift - 1)) - 1) + ((m lsr shift) land 1)) lsr shift

(* Convert a single-precision bit pattern (as int, 32 significant bits)
   to a half-precision bit pattern with round-to-nearest-even. *)
let of_float32_bits (x : int) : bits =
  let sign = (x lsr 16) land sign_mask in
  let e = (x lsr 23) land 0xff in
  let m = x land 0x7fffff in
  if e = 255 then
    (* Inf or NaN. Preserve NaN-ness via a quiet mantissa bit. *)
    sign lor exp_mask lor (if m <> 0 then 0x200 else 0)
  else
    let e' = e - 127 + 15 in
    if e' >= 31 then sign lor exp_mask (* overflow -> infinity *)
    else if e' <= 0 then
      if e' < -10 then sign (* underflows to signed zero *)
      else
        (* Subnormal half: shift the (implicit-1) mantissa right; a
           carry up to 0x400 is the smallest normal, as it should be. *)
        sign lor rne (m lor 0x800000) (14 - e')
    else
      (* Exponent and mantissa round together: a mantissa carry
         propagating into the exponent, possibly up to infinity, is
         exactly what IEEE rounding requires. *)
      sign lor rne ((e' lsl 23) lor m) 13

(* Two-step rounding (see the module doc): [Int32.bits_of_float] is the
   binary64 -> binary32 RNE step, [of_float32_bits] the second. *)
let[@inline] of_float (f : float) : bits =
  of_float32_bits (Int32.to_int (Int32.bits_of_float f) land 0xffffffff)

(* Weight of one mantissa unit at biased exponent [e]: 2^-24 for
   subnormals (e = 0), 2^(e-25) for normals. Built with the decode
   formula's own [2. ** ...] expressions, so every entry is the exact
   value that formula scaled by; index 31 (inf/NaN) is never read. *)
let unit_scale : float array =
  Array.init 32 (fun e -> if e = 0 then 2. ** -24. else 2. ** Float.of_int (e - 25))

(* The sign and the implicit bit are computed arithmetically rather than
   branched on: a random payload's signs do not predict. *)
let[@inline] to_float (h : bits) : float =
  let sign = Float.of_int (1 - ((h lsr 14) land 2)) in
  let e = (h lsr 10) land 0x1f in
  let m = h land man_mask in
  if e = 31 then if m <> 0 then Float.nan else sign *. Float.infinity
  else
    let m = m lor (((e + 31) lsr 5) lsl 10) in
    sign *. Float.of_int m *. Array.unsafe_get unit_scale e

(** Quantize a float to the nearest representable binary16 value. *)
let[@inline] round (f : float) : float = to_float (of_float f)

(** [round_span src soff dst doff len] sets [dst.(doff+i)] to
    [round src.(soff+i)] for [i < len] ([src] and [dst] may be the same
    array). Tensor stores quantize through this loop: here the codec
    inlines into it, so no float is boxed per element. *)
let round_span (src : float array) soff (dst : float array) doff len =
  for i = 0 to len - 1 do
    dst.(doff + i) <- round src.(soff + i)
  done

(** True iff [f] is exactly representable in binary16. *)
let representable (f : float) : bool =
  Float.is_nan f || Float.equal (round f) f

let max_finite = 65504.0
let min_positive_normal = 2. ** -14.
let min_positive_subnormal = 2. ** -24.
