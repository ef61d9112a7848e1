(* Host-speed probe for tawabench: times a fixed amount of work that
   resembles the toolchain's (short-lived allocation, hashing, string
   building) and prints the fastest of five repetitions, in seconds.
   It links no library of the repository, so no change to the program
   can alter its cost, and it runs in its own process, so neither can
   the program's heap or GC settings. *)

let work () =
  let acc = ref 0 in
  for r = 1 to 200 do
    let l = List.init 500 (fun i -> (i * r, string_of_int (i + r))) in
    let m = List.map (fun (a, s) -> (s, a + String.length s)) l in
    let t = Hashtbl.create 64 in
    List.iter (fun (s, a) -> Hashtbl.replace t s a) m;
    acc := !acc + Hashtbl.length t + String.length (Digest.string (fst (List.hd m)))
  done;
  Sys.opaque_identity !acc

let () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (work ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  Printf.printf "%.9f\n" !best
