(** The eight [TAWA_*] environment variables (table in README.md,
    "Environment variables"): the only library code that reads the
    environment.

    Each setting lives in a process-wide cell owned by its module and
    starts at a built-in constant, so a program that links the library
    behaves the same whatever its environment. [tawac] and
    [bench/main.exe] call {!of_env} once at startup; an embedder that
    wants the variables honoured calls it too.

    The four switches ([TAWA_CHECK], [TAWA_COMPILE_CACHE],
    [TAWA_TIMING_OPTS], [TAWA_REPLICATE]) share one grammar: unset or
    empty keeps the default; after trimming and lowercasing, [0],
    [false], [off] and [no] mean off and anything else means on.
    [TAWA_ENGINE], [TAWA_MODE], [TAWA_STATCHECK] and [TAWA_DOMAINS]
    take a vocabulary; an unrecognized value warns once per (variable,
    value) on stderr and keeps the default. *)

open Tawa_analysis

(* One warning per (variable, value) pair per process: of_env may run
   more than once (tests), and a typo should not spam stderr. *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let warn_lock = Mutex.create ()

let warn_unrecognized var value expected =
  let key = var ^ "=" ^ value in
  Mutex.lock warn_lock;
  let fresh = not (Hashtbl.mem warned key) in
  if fresh then Hashtbl.add warned key ();
  Mutex.unlock warn_lock;
  if fresh then
    Printf.eprintf "tawa: warning: unrecognized %s=%S (expected %s); ignored\n%!"
      var value expected

let positive_int s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

(** Apply all eight variables to the process-wide settings. Unset
    variables restore the built-in defaults, so
    [of_env ~getenv:(fun _ -> None) ()] resets everything. [getenv]
    defaults to [Sys.getenv_opt]. *)
let of_env ?(getenv = Sys.getenv_opt) () =
  let switch var ~default =
    match getenv var with
    | None -> default
    | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" -> default
      | "0" | "false" | "off" | "no" -> false
      | _ -> true)
  in
  let choice var ~expected parse =
    match getenv var with
    | None -> None
    | Some s ->
      let v = parse s in
      if v = None then warn_unrecognized var s expected;
      v
  in
  Config.set_default_engine
    (choice "TAWA_ENGINE" ~expected:"reference|decoded" Config.engine_of_string);
  Config.set_default_mode
    (choice "TAWA_MODE" ~expected:"functional|timing" Config.mode_of_string);
  Statcheck.set_mode
    (Option.value ~default:Statcheck.Warn
       (choice "TAWA_STATCHECK" ~expected:"off|warn|error" Statcheck.mode_of_string));
  Tawa_pool.Pool.set_default_domains
    (choice "TAWA_DOMAINS" ~expected:"a positive integer" positive_int);
  Arefcheck.set_enabled (switch "TAWA_CHECK" ~default:false);
  Tawa_machine.Progcache.set_enabled (switch "TAWA_COMPILE_CACHE" ~default:true);
  Decode.set_opts_enabled (switch "TAWA_TIMING_OPTS" ~default:true);
  Launch.set_replication_enabled (switch "TAWA_REPLICATE" ~default:true)
