(* Host-time spans recorded by the benchmark around its own calls into
   the libraries. A span is (name, parent, start, end) plus the
   [Gc.minor_words] delta over it. Spans live in memory while the run
   measures and are written out when it ends.

   Recording is off unless [on] is set (the traced run). Spans are only
   opened from the main domain: the benchmark's calls are sequential,
   so a span's children never overlap and its self time is its
   duration minus the sum of its children's. *)

type span = {
  mutable name : string;
  parent : int; (* index of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

let now = Unix.gettimeofday
let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let last_closed = ref (-1)

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  last_closed := -1

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let enter name =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let id =
    push { name; parent; t0 = now (); t1 = nan; w0 = Gc.minor_words (); w1 = 0.0 }
  in
  stack := id :: !stack;
  id

let leave id name =
  let s = !spans.(id) in
  s.w1 <- Gc.minor_words ();
  s.t1 <- now ();
  s.name <- name;
  stack := List.tl !stack;
  last_closed := id

(** [time name f] runs [f] inside a span when recording is on.
    [rename] picks the final name from the result (e.g. a cache hit or
    miss, known only after the call). *)
let time ?rename name f =
  if not !on then f ()
  else begin
    let id = enter name in
    match f () with
    | v ->
      leave id (match rename with Some r -> r v | None -> name);
      v
    | exception e ->
      leave id name;
      raise e
  end

(** Attach child spans to the span closed last, from durations the
    program measured itself (the pass manager's registry timers, the
    graph scheduler's wave clocks). They are laid end to end from the
    parent's start: the calls they time ran one after another inside
    it. *)
let add_children (parts : (string * float) list) =
  if !on && !last_closed >= 0 then begin
    let parent = !last_closed in
    let start = ref !spans.(parent).t0 in
    List.iter
      (fun (name, dur) ->
        ignore
          (push { name; parent; t0 = !start; t1 = !start +. dur; w0 = 0.0; w1 = 0.0 });
        start := !start +. dur)
      parts;
    last_closed := parent
  end

(* ------------------------------ ledger ----------------------------- *)

type entry = {
  mutable calls : int;
  mutable total : float; (* seconds, inclusive *)
  mutable self : float; (* seconds, children excluded *)
  mutable words : float; (* minor words allocated, inclusive *)
}

type ledger = {
  layers : (string, entry) Hashtbl.t;
  covered : float; (* seconds covered by top-level spans *)
  self_sum : float;
}

let ledger () : ledger =
  let n = !count in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
  done;
  let layers = Hashtbl.create 32 in
  let covered = ref 0.0 and self_sum = ref 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let dur = s.t1 -. s.t0 in
    let self = dur -. child.(i) in
    let e =
      match Hashtbl.find_opt layers s.name with
      | Some e -> e
      | None ->
        let e = { calls = 0; total = 0.0; self = 0.0; words = 0.0 } in
        Hashtbl.replace layers s.name e;
        e
    in
    e.calls <- e.calls + 1;
    e.total <- e.total +. dur;
    e.self <- e.self +. self;
    e.words <- e.words +. (s.w1 -. s.w0);
    self_sum := !self_sum +. self;
    if s.parent < 0 then covered := !covered +. dur
  done;
  { layers; covered = !covered; self_sum = !self_sum }

(** Write every span as one JSON document: times in microseconds from
    [origin]. *)
let write_json oc ~origin =
  output_string oc "[";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%s\n{\"name\": %S, \"parent\": %d, \"start_us\": %.1f, \"end_us\": %.1f}"
      (if i = 0 then "" else ",")
      s.name s.parent
      ((s.t0 -. origin) *. 1e6)
      ((s.t1 -. origin) *. 1e6)
  done;
  output_string oc "\n]"
