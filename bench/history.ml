(* Bench regression tracking over the BENCH_*.json trajectory.

   Every PR's bench run writes one `tawa-bench-trajectory/v1` document;
   this tool ingests any number of them, orders them by PR, prints the
   trajectory of each figure (wall seconds of the fast-engine pass and
   mean Tawa TFLOPS), and exits non-zero when a consecutive step
   regresses past the configured thresholds — so a slow or misbehaving
   PR fails the build instead of silently bending the curve.

   The seconds key is era-dependent: PR 1 predates the decoded engine
   and recorded sequential/parallel wall clocks; later PRs record
   reference/decoded. The canonical "wall" of a figure is the first
   present of decoded_seconds, parallel_seconds, sequential_seconds,
   reference_seconds — always the fastest configuration that era
   shipped. TFLOPS are averaged over every `Tawa` entry of the
   figure's `tflops_rows` tables plus every `tawa_tflops` field
   (fig9's batched/grouped shape lists).

   The decoded engine's instruction rate (`decoded_instructions_per_sec`,
   recorded beside `decoded_seconds`) is gated too: it may drop by no
   more than the wall threshold, compared only when both files'
   `decoded_seconds` reach `--min-wall` (a short figure's rate is as
   noisy as its wall).

   Exit codes: 0 clean, 1 regression, 2 malformed input. *)

module Json = Tawa_obs.Json

let wall_keys =
  [ "decoded_seconds"; "parallel_seconds"; "sequential_seconds"; "reference_seconds" ]

type fig = {
  f_name : string;
  f_wall : float option;
  f_tflops : float option;
  f_decoded_wall : float option; (* decoded_seconds, absent in the oldest era *)
  f_rate : float option; (* decoded_instructions_per_sec *)
}
type entry = { e_pr : int; e_path : string; e_figs : fig list }

exception Malformed of string

let mal path fmt =
  Printf.ksprintf (fun s -> raise (Malformed (Printf.sprintf "%s: %s" path s))) fmt

(* Mean of every Tawa throughput number reachable inside a figure's
   [data]: "Tawa" columns of tflops_rows tables and "tawa_tflops"
   fields of shape lists. *)
let mean_tawa_tflops (data : Json.t) : float option =
  let acc = ref [] in
  let rec walk = function
    | Json.Obj kvs ->
      List.iter
        (fun (k, v) ->
          match (k, Json.to_float_opt v) with
          | ("Tawa" | "tawa_tflops"), Some f -> acc := f :: !acc
          | _ -> walk v)
        kvs
    | Json.List xs -> List.iter walk xs
    | _ -> ()
  in
  walk data;
  match !acc with
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))

let load path : entry =
  let doc =
    try Json.of_file path with
    | Json.Parse_error msg -> mal path "invalid JSON (%s)" msg
    | Sys_error msg -> mal path "unreadable (%s)" msg
  in
  (match Option.bind (Json.member "schema" doc) Json.to_str_opt with
  | Some "tawa-bench-trajectory/v1" -> ()
  | Some other -> mal path "unknown schema %S" other
  | None -> mal path "missing schema field");
  let pr =
    match Option.bind (Json.member "pr" doc) Json.to_int_opt with
    | Some pr -> pr
    | None -> mal path "missing integer pr field"
  in
  let figs =
    match Option.bind (Json.member "figures" doc) Json.to_list_opt with
    | Some figs -> figs
    | None -> mal path "missing figures list"
  in
  let parse_fig f =
    let name =
      match Option.bind (Json.member "name" f) Json.to_str_opt with
      | Some n -> n
      | None -> mal path "figure without a name"
    in
    let wall =
      List.find_map (fun k -> Option.bind (Json.member k f) Json.to_float_opt) wall_keys
    in
    if wall = None then mal path "figure %s: no wall-seconds key" name;
    let tflops =
      match Json.member "data" f with
      | Some data -> mean_tawa_tflops data
      | None -> mal path "figure %s: no data" name
    in
    let num k = Option.bind (Json.member k f) Json.to_float_opt in
    { f_name = name; f_wall = wall; f_tflops = tflops;
      f_decoded_wall = num "decoded_seconds";
      f_rate = num "decoded_instructions_per_sec" }
  in
  { e_pr = pr; e_path = path; e_figs = List.map parse_fig figs }

type verdict = {
  v_pr : int;
  v_fig : string;
  v_what : string; (* "wall" | "tflops" | "decoded-ips" *)
  v_prev : float;
  v_cur : float;
  v_ratio : float;
}

let check ~max_wall ~min_wall ~max_tflops (entries : entry list) : verdict list =
  let sorted = List.sort (fun a b -> compare a.e_pr b.e_pr) entries in
  let bad = ref [] in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      List.iter
        (fun (fb : fig) ->
          match List.find_opt (fun (fa : fig) -> fa.f_name = fb.f_name) a.e_figs with
          | None -> ()
          | Some fa ->
            (* Host wall clocks below [min_wall] are noise-dominated
               (historic sub-100ms figures swing 30%+ run to run);
               only measurable baselines gate. *)
            (match (fa.f_wall, fb.f_wall) with
            | Some wa, Some wb when wa >= min_wall && wb > wa *. (1.0 +. max_wall) ->
              bad :=
                { v_pr = b.e_pr; v_fig = fb.f_name; v_what = "wall";
                  v_prev = wa; v_cur = wb; v_ratio = wb /. wa }
                :: !bad
            | _ -> ());
            (match (fa.f_tflops, fb.f_tflops) with
            | Some ta, Some tb when ta > 0.0 && tb < ta *. (1.0 -. max_tflops) ->
              bad :=
                { v_pr = b.e_pr; v_fig = fb.f_name; v_what = "tflops";
                  v_prev = ta; v_cur = tb; v_ratio = tb /. ta }
                :: !bad
            | _ -> ());
            match (fa.f_decoded_wall, fb.f_decoded_wall, fa.f_rate, fb.f_rate) with
            | Some wa, Some wb, Some ra, Some rb
              when wa >= min_wall && wb >= min_wall && ra > 0.0
                   && rb < ra *. (1.0 -. max_wall) ->
              bad :=
                { v_pr = b.e_pr; v_fig = fb.f_name; v_what = "decoded-ips";
                  v_prev = ra; v_cur = rb; v_ratio = rb /. ra }
                :: !bad
            | _ -> ())
        b.e_figs;
      pairs rest
    | _ -> ()
  in
  pairs sorted;
  List.rev !bad

let print_trajectory (entries : entry list) =
  let sorted = List.sort (fun a b -> compare a.e_pr b.e_pr) entries in
  let fmt_opt = function Some f -> Printf.sprintf "%.3f" f | None -> "-" in
  let rows =
    List.concat_map
      (fun e ->
        List.map
          (fun f ->
            [ string_of_int e.e_pr; f.f_name; fmt_opt f.f_wall;
              fmt_opt f.f_tflops;
              fmt_opt (Option.map (fun r -> r /. 1e6) f.f_rate);
              Filename.basename e.e_path ])
          e.e_figs)
      sorted
  in
  print_string
    (Tawa_obs.Tbl.render
       ~header:
         [ "pr"; "figure"; "wall-s"; "mean-tawa-tflops"; "decoded-Minstr/s"; "file" ]
       rows)

let () =
  let max_wall = ref 0.15 in
  let min_wall = ref 0.2 in
  let max_tflops = ref 0.10 in
  let files = ref [] in
  let spec =
    [ ( "--max-wall-regress",
        Arg.Set_float max_wall,
        "FRAC  allowed wall-seconds growth, and decoded instruction-rate drop, \
         between consecutive PRs (default 0.15)" );
      ( "--min-wall",
        Arg.Set_float min_wall,
        "SECONDS  skip wall comparison when the baseline is below this, and \
         rate comparison when either decoded wall is (default 0.2)" );
      ( "--max-tflops-regress",
        Arg.Set_float max_tflops,
        "FRAC  allowed mean-TFLOPS drop between consecutive PRs (default 0.10)" ) ]
  in
  Arg.parse spec (fun f -> files := f :: !files)
    "history [options] BENCH_PR*.json...\nBench trajectory regression tracking.";
  let files = List.rev !files in
  if files = [] then begin
    prerr_endline "history: no BENCH_*.json inputs";
    exit 2
  end;
  match List.map load files with
  | exception Malformed msg ->
    Printf.eprintf "history: %s\n" msg;
    exit 2
  | entries ->
    print_trajectory entries;
    let bad =
      check ~max_wall:!max_wall ~min_wall:!min_wall ~max_tflops:!max_tflops
        entries
    in
    if bad = [] then begin
      Printf.printf
        "trajectory clean: %d PRs, thresholds wall +%.0f%% tflops -%.0f%% decoded-ips -%.0f%%\n"
        (List.length entries) (100.0 *. !max_wall) (100.0 *. !max_tflops)
        (100.0 *. !max_wall);
      exit 0
    end
    else begin
      List.iter
        (fun v ->
          Printf.eprintf
            "REGRESSION pr%d %s %s: %.3f -> %.3f (x%.2f)\n" v.v_pr v.v_fig
            v.v_what v.v_prev v.v_cur v.v_ratio)
        bad;
      exit 1
    end
