(* The TAWA_* environment variables: [Settings.of_env] driven by a fake
   environment, read back through the getters of the modules that own
   each setting. Every case restores the built-in defaults, which is
   what the rest of the suite runs under (it never calls [of_env]). *)

open Tawa_gpusim
open Tawa_analysis
module Pool = Tawa_pool.Pool
module Progcache = Tawa_machine.Progcache

let apply env = Settings.of_env ~getenv:(fun v -> List.assoc_opt v env) ()

let restoring f = Fun.protect ~finally:(fun () -> apply []) f

(* Run [f] with [env] applied, then restore every default. *)
let under env f = restoring (fun () -> apply env; f ())

(* What [f] writes to stderr. *)
let stderr_of f =
  flush stderr;
  let path = Filename.temp_file "tawa_settings" ".err" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

(* An unrecognized value warns on its first [of_env] only, and leaves
   the default; [check] asserts the default. *)
let check_typo var value check =
  restoring (fun () ->
      let first = stderr_of (fun () -> apply [ (var, value) ]) in
      Alcotest.(check bool)
        (Printf.sprintf "%s=%s warns" var value)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "unrecognized %s=%S" var value) first);
      check ();
      Alcotest.(check string)
        (Printf.sprintf "%s=%s warns once" var value)
        "" (stderr_of (fun () -> apply [ (var, value) ])))

(* The four switches share one grammar, each against its own default. *)
let switches =
  [ ("TAWA_CHECK", false, Arefcheck.checking_enabled);
    ("TAWA_COMPILE_CACHE", true, Progcache.is_enabled);
    ("TAWA_TIMING_OPTS", true, Decode.opts_on);
    ("TAWA_REPLICATE", true, Launch.replication_enabled) ]

let test_switches () =
  List.iter
    (fun (var, default, get) ->
      List.iter
        (fun (v, want) ->
          let env = match v with None -> [] | Some s -> [ (var, s) ] in
          under env (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "%s=%s" var (Option.value v ~default:"<unset>"))
                (Option.value want ~default) (get ())))
        [ (None, None); (Some "", None); (Some "0", Some false);
          (Some "false", Some false); (Some "off", Some false);
          (Some "OFF", Some false); (Some "no", Some false); (Some "1", Some true);
          (Some "yes", Some true); (Some "deadlock", Some true) ])
    switches

let test_engine () =
  let resolved () = Engine.resolve { Config.h100 with Config.engine = None } in
  List.iter
    (fun (v, want) ->
      under [ ("TAWA_ENGINE", v) ] (fun () ->
          Alcotest.(check bool) ("TAWA_ENGINE=" ^ v) true (resolved () = want)))
    [ ("reference", Config.Reference); (" Ref ", Config.Reference);
      ("tree", Config.Reference); ("interp", Config.Reference);
      ("decoded", Config.Decoded); ("CLOSURE", Config.Decoded) ];
  check_typo "TAWA_ENGINE" "refrence" (fun () ->
      Alcotest.(check bool) "typo keeps the default" true
        (Config.default_engine () = None && resolved () = Config.Decoded))

let test_mode () =
  List.iter
    (fun (v, want) ->
      under [ ("TAWA_MODE", v) ] (fun () ->
          Alcotest.(check bool) ("TAWA_MODE=" ^ v) true
            (Config.default_mode () = Some want)))
    [ ("functional", Config.Functional); ("Func", Config.Functional);
      ("timing", Config.Timing); (" time ", Config.Timing) ];
  check_typo "TAWA_MODE" "timming" (fun () ->
      Alcotest.(check bool) "typo keeps the default" true (Config.default_mode () = None))

let test_statcheck () =
  List.iter
    (fun (v, want) ->
      under [ ("TAWA_STATCHECK", v) ] (fun () ->
          Alcotest.(check bool) ("TAWA_STATCHECK=" ^ v) true
            (Statcheck.current_mode () = want)))
    [ ("off", Statcheck.Off); ("0", Statcheck.Off); ("", Statcheck.Off);
      ("warn", Statcheck.Warn); ("YES", Statcheck.Warn);
      ("error", Statcheck.Error); (" strict ", Statcheck.Error);
      ("fatal", Statcheck.Error) ];
  check_typo "TAWA_STATCHECK" "eror" (fun () ->
      Alcotest.(check bool) "typo keeps warn" true (Statcheck.current_mode () = Statcheck.Warn))

let test_domains () =
  let recommended = max 1 (Domain.recommended_domain_count ()) in
  List.iter
    (fun (v, want) ->
      under [ ("TAWA_DOMAINS", v) ] (fun () ->
          Alcotest.(check int) ("TAWA_DOMAINS=" ^ v) want (Pool.default_domains ())))
    [ ("1", 1); ("3", 3); (" 2 ", 2) ];
  List.iter
    (fun v ->
      check_typo "TAWA_DOMAINS" v (fun () ->
          Alcotest.(check int) "invalid keeps the default" recommended
            (Pool.default_domains ())))
    [ "0"; "-2"; "many" ]

let test_unset_restores_defaults () =
  restoring (fun () ->
      apply
        [ ("TAWA_ENGINE", "reference"); ("TAWA_MODE", "functional"); ("TAWA_CHECK", "1");
          ("TAWA_STATCHECK", "error"); ("TAWA_COMPILE_CACHE", "0");
          ("TAWA_TIMING_OPTS", "0"); ("TAWA_REPLICATE", "0"); ("TAWA_DOMAINS", "1") ];
      Alcotest.(check bool) "all eight applied" true
        (Config.default_engine () = Some Config.Reference
        && Config.default_mode () = Some Config.Functional
        && Statcheck.current_mode () = Statcheck.Error
        && Pool.default_domains () = 1
        && List.for_all (fun (_, default, get) -> get () <> default) switches);
      Settings.of_env ~getenv:(fun _ -> None) ();
      Alcotest.(check bool) "engine" true (Config.default_engine () = None);
      Alcotest.(check bool) "mode" true (Config.default_mode () = None);
      Alcotest.(check bool) "statcheck" true (Statcheck.current_mode () = Statcheck.Warn);
      Alcotest.(check int) "domains" (max 1 (Domain.recommended_domain_count ()))
        (Pool.default_domains ());
      List.iter
        (fun (var, default, get) -> Alcotest.(check bool) var default (get ()))
        switches)

let suites =
  [ ( "settings",
      [ Alcotest.test_case "switch grammar" `Quick test_switches;
        Alcotest.test_case "engine vocabulary" `Quick test_engine;
        Alcotest.test_case "mode vocabulary" `Quick test_mode;
        Alcotest.test_case "statcheck vocabulary" `Quick test_statcheck;
        Alcotest.test_case "domains" `Quick test_domains;
        Alcotest.test_case "unset restores every default" `Quick
          test_unset_restores_defaults ] ) ]
