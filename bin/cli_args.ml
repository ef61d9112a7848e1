(* Shared command-line vocabulary of the tawac subcommands.

   Every subcommand draws its flags from here, so a given flag spells,
   parses, and misparses identically everywhere: `--engine foo` produces
   the same error under `run`, `profile`, and `autotune`. Compile-shape
   flags (-D/-P/--coop/...) fold into one [Flow.options] via
   {!options_of}, including the lowering strategy (--sw-pipeline /
   --naive). *)

open Cmdliner
open Tawa_core
open Tawa_gpusim

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.tw")

let kernel =
  Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"NAME" ~doc:"Only this kernel.")

let d = Arg.(value & opt int 2 & info [ "D"; "aref-depth" ] ~doc:"aref ring depth D.")
let p = Arg.(value & opt int 2 & info [ "P"; "mma-depth" ] ~doc:"MMA pipeline depth P.")
let coop = Arg.(value & opt int 1 & info [ "coop" ] ~doc:"Cooperative consumer warp groups.")
let persistent = Arg.(value & flag & info [ "persistent" ] ~doc:"Persistent kernel.")
let coarse = Arg.(value & flag & info [ "coarse" ] ~doc:"Coarse-grained T/C/U pipeline.")

let sw =
  Arg.(value & opt (some int) None
       & info [ "sw-pipeline" ] ~docv:"STAGES"
           ~doc:"Compile with Ampere-style software pipelining (the Triton baseline) instead of warp specialization.")

let naive =
  Arg.(value & flag & info [ "naive" ] ~doc:"Compile with synchronous naive loads (no asynchrony).")

(* Shape flags. The defaults differ per command (run/profile exercise a
   small kernel; autotune targets the paper's figure shapes), so these
   are constructors. *)
let m ?(default = 64) () = Arg.(value & opt int default & info [ "m" ] ~doc:"GEMM M.")
let n ?(default = 64) () = Arg.(value & opt int default & info [ "n" ] ~doc:"GEMM N.")
let k ?(default = 64) () = Arg.(value & opt int default & info [ "k" ] ~doc:"GEMM K.")

let l ?(default = 64) () =
  Arg.(value & opt int default & info [ "l" ] ~doc:"Attention sequence length.")

let engine =
  let engine_conv =
    Arg.enum
      [ ("reference", Some Config.Reference); ("decoded", Some Config.Decoded) ]
  in
  Arg.(value & opt engine_conv None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Simulator execution engine: $(b,decoded) (closure-compiled, the default) \
                 or $(b,reference) (tree-walking oracle). Unset defers to \\$(b,TAWA_ENGINE).")

let mode =
  let mode_conv =
    Arg.enum [ ("functional", Config.Functional); ("timing", Config.Timing) ]
  in
  Arg.(value & opt (some mode_conv) None
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Execution mode: $(b,functional) simulates the tile payload (and, under \
                 $(b,run), verifies results against the CPU reference) while \
                 $(b,timing) skips data movement whose values never reach an address, \
                 predicate, or cost -- cycle-identical but much faster. Unset defers \
                 to \\$(b,TAWA_MODE); $(b,run) defaults to functional, $(b,profile) \
                 and $(b,autotune) to timing.")

let obs_conv : [ `Table | `Json ] Arg.conv =
  Arg.enum [ ("table", `Table); ("json", `Json) ]

let obs_opt =
  Arg.(value & opt (some obs_conv) None
       & info [ "obs" ] ~docv:"FORMAT"
           ~doc:"Also print the CTA profile (stall attribution + channel occupancy) as \
                 $(b,table) or $(b,json).")

let obs =
  Arg.(value & opt obs_conv `Table
       & info [ "obs" ] ~docv:"FORMAT"
           ~doc:"Output format: $(b,table) (default) or $(b,json).")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"PATH"
           ~doc:"Write a Chrome trace-event JSON of one CTA's per-unit intervals to \
                 $(docv) (load in Perfetto or chrome://tracing).")

let ops =
  Arg.(value & flag
       & info [ "ops" ]
           ~doc:"Print the hot-op table: simulated cycles attributed to each IR op \
                 (via the codegen source map), split by stall bucket and mapped back \
                 to the front-end op it descends from.")

let channels =
  Arg.(value & flag
       & info [ "channels" ]
           ~doc:"Print the reconstructed per-channel timeline: put and wait spans on \
                 every mbarrier and aref ring, recovered from recorded channel events.")

let critical_path =
  Arg.(value & flag
       & info [ "critical-path" ]
           ~doc:"Print the critical path: the longest chain of op segments and \
                 channel edges (op completion -> mbarrier arrive -> waiter wake) \
                 bounding the CTA's latency, with per-edge slack.")

let demo =
  Arg.(value & opt string "all"
       & info [ "demo" ] ~docv:"NAME"
           ~doc:"Demo graph to execute: $(b,attention) (QKV projections, attention, \
                 output projection), $(b,splitk) (partial GEMMs + reduction epilogue), \
                 $(b,moe) (independent expert GEMMs), or $(b,all) (default).")

let replays =
  Arg.(value & opt int 3
       & info [ "replays" ] ~docv:"N"
           ~doc:"Replay the instantiated graph $(docv) times (default 3); the decode \
                 and compile caches are only consulted during instantiate, never \
                 during replay.")

(* ------------------------- flag resolution ------------------------ *)

(** Lowering strategy from the --sw-pipeline / --naive flags. *)
let strategy_of ~sw ~naive : Flow.strategy =
  if naive then Flow.Naive
  else
    match sw with
    | Some stages -> Flow.Sw_pipelined stages
    | None -> Flow.Warp_specialized

(** Build the [Flow.options] a subcommand compiles with. Under
    --sw-pipeline the aref depth mirrors the stage count (the software
    pipeline's buffering takes the place of the aref ring). *)
let options_of ?sw:(sw_stages = None) ?(naive = false) ~d ~p ~coop ~persistent
    ~coarse () : Flow.options =
  let strategy = strategy_of ~sw:sw_stages ~naive in
  let d = match strategy with Flow.Sw_pipelined stages -> stages | _ -> d in
  { Flow.aref_depth = d; mma_depth = p;
    num_consumer_wgs = coop; persistent; use_coarse = coarse; strategy }

(** Effective execution mode: explicit --mode wins, then the
    process-wide default (TAWA_MODE via {!Settings.of_env}), then the
    command's default. *)
let resolve_mode ~default = function
  | Some m -> m
  | None -> ( match Config.default_mode () with Some m -> m | None -> default)
