(* tawac — the Tawa compiler driver.

   Compiles `.tw` tile kernels (the textual DSL) through the Tawa
   warp-specialization pipeline, optionally dumping the transformed IR
   and the PTX-like machine code, and can execute kernels with
   recognizable signatures on the simulated H100 to check them against
   golden references and report timing. *)

open Cmdliner
open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_core
open Tawa_gpusim

let read_kernels path kernel_name =
  let kernels = Elaborate.compile_file path in
  match kernel_name with
  | None -> kernels
  | Some n -> List.filter (fun (k : Kernel.t) -> k.Kernel.name = n) kernels

(* ---------------------------- compile ----------------------------- *)

let do_compile path kernel_name d p coop persistent coarse sw naive dump_ir dump_asm check
    ids =
  try
    let options = Cli_args.options_of ~sw ~naive ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    if kernels = [] then begin
      Printf.eprintf "tawac: no kernels found\n";
      exit 1
    end;
    let check_failed = ref false in
    List.iter
      (fun k ->
        let c = Flow.compile ~options k in
        Printf.printf "kernel @%s: %s%s, %d IR ops, %d instructions, %d B SMEM, %d mbarriers\n"
          k.Kernel.name
          (if c.Flow.warp_specialized then "warp-specialized" else "not specialized")
          (if c.Flow.coarse then " + coarse pipeline" else "")
          (Kernel.count_ops c.Flow.transformed)
          (Tawa_machine.Isa.instr_count c.Flow.program)
          (Tawa_machine.Isa.smem_bytes c.Flow.program)
          c.Flow.program.Tawa_machine.Isa.num_mbarriers;
        if check then begin
          let ds = Tawa_analysis.Diagnostic.sort (Flow.check_compiled c) in
          List.iter (fun d -> print_endline (Tawa_analysis.Diagnostic.to_string d)) ds;
          if Tawa_analysis.Diagnostic.errors ds <> [] then check_failed := true
        end;
        if dump_ir then print_string (Flow.dump_ir ~ids c);
        if dump_asm then print_string (Flow.dump_asm c))
      kernels;
    if !check_failed then 1 else 0
  with
  | Elaborate.Elab_error (msg, pos) | Parser.Parse_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Lexer.Lex_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: lexical error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Verifier.Ill_formed msg ->
    Printf.eprintf "tawac: IR verification failed: %s\n" msg;
    1
  | Tawa_analysis.Arefcheck.Check_failed (what, ds) ->
    Printf.eprintf "tawac: arefcheck failed for %s:\n%s\n" what
      (Tawa_analysis.Diagnostic.report ds);
    1

(* ----------------------------- check ------------------------------- *)

let do_check path kernel_name d p coop persistent coarse =
  try
    let options = Cli_args.options_of ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    if kernels = [] then begin
      Printf.eprintf "tawac: no kernels found\n";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun k ->
        let c = Flow.compile ~options k in
        let ds = Tawa_analysis.Diagnostic.sort (Flow.check_compiled c) in
        List.iter (fun d -> print_endline (Tawa_analysis.Diagnostic.to_string d)) ds;
        if Tawa_analysis.Diagnostic.errors ds <> [] then failed := true
        else
          Printf.printf "kernel @%s: arefcheck clean (%s%s)\n" k.Kernel.name
            (if c.Flow.warp_specialized then "warp-specialized" else "not specialized")
            (if c.Flow.coarse then " + coarse pipeline" else ""))
      kernels;
    if !failed then 1 else 0
  with
  | Elaborate.Elab_error (msg, pos) | Parser.Parse_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Lexer.Lex_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: lexical error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Verifier.Ill_formed msg ->
    Printf.eprintf "tawac: IR verification failed: %s\n" msg;
    1

(* ------------------------------ lint ------------------------------- *)

let diag_to_json (d : Tawa_analysis.Diagnostic.t) =
  let open Tawa_obs.Json in
  Obj
    [ ("check", Str d.Tawa_analysis.Diagnostic.check);
      ( "severity",
        Str
          (Tawa_analysis.Diagnostic.severity_to_string
             d.Tawa_analysis.Diagnostic.severity) );
      ( "op_id",
        match d.Tawa_analysis.Diagnostic.op with
        | Some o -> Int o.Op.oid
        | None -> Null );
      ("message", Str d.Tawa_analysis.Diagnostic.message) ]

let do_lint path kernel_name d p coop persistent coarse obs =
  try
    let options = Cli_args.options_of ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    if kernels = [] then begin
      Printf.eprintf "tawac: no kernels found\n";
      exit 1
    end;
    let failed = ref false in
    let results =
      List.map
        (fun k ->
          let c = Flow.compile ~options k in
          let ds = Tawa_analysis.Statcheck.check_kernel c.Flow.transformed in
          if Tawa_analysis.Diagnostic.errors ds <> [] then failed := true;
          (k.Kernel.name, ds))
        kernels
    in
    (match obs with
    | `Json ->
      print_endline
        (Tawa_obs.Json.to_string
           (Tawa_obs.Json.List
              (List.map
                 (fun (name, ds) ->
                   Tawa_obs.Json.Obj
                     [ ("kernel", Tawa_obs.Json.Str name);
                       ("diagnostics", Tawa_obs.Json.List (List.map diag_to_json ds)) ])
                 results)))
    | `Table ->
      List.iter
        (fun (name, ds) ->
          match ds with
          | [] -> Printf.printf "kernel @%s: statcheck clean\n" name
          | ds ->
            Printf.printf "kernel @%s: %d statcheck finding(s)\n" name (List.length ds);
            List.iter
              (fun d -> print_endline (Tawa_analysis.Diagnostic.to_string d))
              ds)
        results);
    if !failed then 1 else 0
  with
  | Elaborate.Elab_error (msg, pos) | Parser.Parse_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Verifier.Ill_formed msg ->
    Printf.eprintf "tawac: IR verification failed: %s\n" msg;
    1

(* --------------------------- occupancy ----------------------------- *)

let verdict_to_json (v : Tawa_machine.Resources.verdict) =
  let open Tawa_obs.Json in
  match v with
  | Tawa_machine.Resources.Feasible _ -> Obj [ ("feasible", Bool true) ]
  | Tawa_machine.Resources.Infeasible why ->
    Obj [ ("feasible", Bool false); ("reason", Str why) ]

let occupancy_to_json (r : Tawa_analysis.Statcheck.report) =
  let open Tawa_obs.Json in
  let open Tawa_analysis.Statcheck in
  Obj
    [ ("kernel", Str r.kernel_name);
      ( "warp_groups",
        List
          (List.map
             (fun pu ->
               Obj
                 [ ("index", Int pu.pu_index);
                   ("role", Str (Op.role_to_string pu.pu_role));
                   ("coop", Int pu.pu_coop);
                   ("tensor_bytes", Int pu.pu_tensor_bytes);
                   ("max_live_bytes", Int pu.pu_max_live_bytes);
                   ("regs_per_thread", Int pu.pu_regs_per_thread) ])
             r.parts) );
      ( "smem",
        Obj
          [ ("total_bytes", Int r.smem_bytes);
            ( "items",
              List
                (List.map
                   (fun (it : Tawa_analysis.Footprint.smem_item) ->
                     Obj
                       [ ("label", Str (Tawa_analysis.Footprint.label it));
                         ("bytes", Int it.Tawa_analysis.Footprint.item_bytes);
                         ("copies", Int it.Tawa_analysis.Footprint.copies) ])
                   r.smem_items) ) ] );
      ("total_regs", Int r.total_regs);
      ("verdict", verdict_to_json r.verdict);
      ("ctas_per_sm", Int r.ctas_per_sm);
      ("limiting", Str r.limiting);
      ("smem_headroom", Int r.smem_headroom);
      ("reg_headroom", Int r.reg_headroom) ]

let do_occupancy path kernel_name d p coop persistent coarse obs =
  try
    let options = Cli_args.options_of ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    if kernels = [] then begin
      Printf.eprintf "tawac: no kernels found\n";
      exit 1
    end;
    let infeasible = ref false in
    let reports =
      List.map
        (fun k ->
          let c = Flow.compile ~options k in
          let r = Tawa_analysis.Statcheck.occupancy_report c.Flow.transformed in
          (match r.Tawa_analysis.Statcheck.verdict with
          | Tawa_machine.Resources.Infeasible _ -> infeasible := true
          | Tawa_machine.Resources.Feasible _ -> ());
          r)
        kernels
    in
    (match obs with
    | `Json ->
      print_endline
        (Tawa_obs.Json.to_string
           (Tawa_obs.Json.List (List.map occupancy_to_json reports)))
    | `Table ->
      List.iter
        (fun (r : Tawa_analysis.Statcheck.report) ->
          let open Tawa_analysis.Statcheck in
          Printf.printf "kernel @%s: static occupancy\n" r.kernel_name;
          List.iter
            (fun pu ->
              Printf.printf
                "  wg%d %-9s coop=%d  tensor %6d B  max-live %6d B  %3d regs/thread\n"
                pu.pu_index
                (Op.role_to_string pu.pu_role)
                pu.pu_coop pu.pu_tensor_bytes pu.pu_max_live_bytes
                pu.pu_regs_per_thread)
            r.parts;
          List.iter
            (fun (it : Tawa_analysis.Footprint.smem_item) ->
              Printf.printf "  smem %-28s %6d B x%d\n"
                (Tawa_analysis.Footprint.label it) it.Tawa_analysis.Footprint.item_bytes
                it.Tawa_analysis.Footprint.copies)
            r.smem_items;
          Printf.printf "  total: %d B SMEM, %d registers\n" r.smem_bytes r.total_regs;
          (match r.verdict with
          | Tawa_machine.Resources.Feasible _ ->
            Printf.printf
              "  verdict: feasible, %d CTA(s)/SM (limited by %s; headroom %d B SMEM, \
               %d regs)\n"
              r.ctas_per_sm r.limiting r.smem_headroom r.reg_headroom
          | Tawa_machine.Resources.Infeasible why ->
            Printf.printf "  verdict: INFEASIBLE: %s\n" why))
        reports);
    if !infeasible then 1 else 0
  with
  | Elaborate.Elab_error (msg, pos) | Parser.Parse_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Verifier.Ill_formed msg ->
    Printf.eprintf "tawac: IR verification failed: %s\n" msg;
    1

(* ------------------------------ run ------------------------------- *)

(* Infer the store-tile shape (rows, cols) from the last tma_store
   operand's tensor type; drives grid sizing for recognized
   signatures. *)
let store_tile (k : Kernel.t) =
  Op.fold_region
    (fun acc op ->
      match op.Op.opcode with
      | Op.Tma_store -> (
        match Value.ty (List.nth op.Op.operands (List.length op.Op.operands - 1)) with
        | Types.TTensor { shape = [ tm; tn ]; _ } -> Some (tm, tn)
        | _ -> acc)
      | _ -> acc)
    None k.Kernel.body

(* Recognize kernel signatures we can drive automatically. *)
let classify_signature (k : Kernel.t) =
  let tys = List.map Value.ty k.Kernel.params in
  let is_ptr = function Types.TPtr _ -> true | _ -> false in
  let is_i32 = function Types.TScalar Dtype.I32 -> true | _ -> false in
  match tys with
  | [ a; b; c; m; n; kk ]
    when is_ptr a && is_ptr b && is_ptr c && is_i32 m && is_i32 n && is_i32 kk ->
    `Gemm
  | [ q; kk; v; o; l ] when List.for_all is_ptr [ q; kk; v; o ] && is_i32 l -> `Attention
  | _ -> `Unknown

(* Render a CTA profile per the --obs choice. *)
let emit_profile ~obs ~kernel_name (t : Launch.timing) =
  match (obs, t.Launch.profile) with
  | None, _ | _, None -> ()
  | Some `Table, Some prof ->
    print_string (Sim.stall_table prof);
    print_string (Sim.chan_table prof)
  | Some `Json, Some prof ->
    print_string
      (Tawa_obs.Json.to_string
         (Tawa_obs.Json.Obj
            [ ("kernel", Tawa_obs.Json.Str kernel_name);
              ("cycles", Tawa_obs.Json.Float t.Launch.cycles);
              ("profile", Sim.profile_to_json prof) ]))

let do_run path kernel_name d p coop persistent coarse sw naive m n kk l engine obs
    emode =
  try
    let emode = Cli_args.resolve_mode ~default:Config.Functional emode in
    let functional = emode = Config.Functional in
    let options = Cli_args.options_of ~sw ~naive ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let cfg = { Config.functional_test with Config.engine } in
    let tcfg = { Config.h100 with Config.engine } in
    List.iter
      (fun k ->
        let c = Flow.compile ~options k in
        match classify_signature k with
        | `Gemm ->
          (* Infer the tile from the accumulator loads is overkill: run
             at user-provided sizes with a 16-divisible grid guess from
             the store tile shape. *)
          let tile_m, tile_n =
            match store_tile k with Some x -> x | None -> (16, 16)
          in
          if functional then begin
            (* Drive inputs at the kernel's declared pointer dtypes so
               e.g. an f8e4m3 GEMM is verified against a reference fed
               the same quantized values. *)
            let ptr_dtype i =
              match List.nth_opt k.Kernel.params i with
              | Some v -> (
                match Value.ty v with Types.TPtr d -> d | _ -> Dtype.F16)
              | None -> Dtype.F16
            in
            let a = Tensor.random ~dtype:(ptr_dtype 0) ~seed:1 [| m; kk |] in
            let b = Tensor.random ~dtype:(ptr_dtype 1) ~seed:2 [| kk; n |] in
            let cbuf = Tensor.create ~dtype:(ptr_dtype 2) [| m; n |] in
            ignore
              (Launch.run_grid_functional ~cfg c.Flow.program
                 ~params:
                   [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor cbuf; Sim.Rint m;
                     Sim.Rint n; Sim.Rint kk ]
                 ~grid:(m / tile_m, n / tile_n, 1));
            let want = Reference.gemm ~out_dtype:(ptr_dtype 2) a b in
            let diff = Tensor.max_rel_diff cbuf want in
            Printf.printf
              "kernel @%s (gemm %dx%dx%d): max rel diff vs reference = %.2e %s\n"
              k.Kernel.name m n kk diff
              (if diff < 1e-3 then "[OK]" else "[MISMATCH]")
          end
          else
            Printf.printf
              "kernel @%s (gemm %dx%dx%d): timing-only mode, functional verification \
               skipped\n"
              k.Kernel.name m n kk;
          (* Timing estimate at the same shape. *)
          let t =
            Launch.estimate ~cfg:tcfg c.Flow.program
              ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]
              ~grid:(m / tile_m, n / tile_n, 1)
              ~flops:(Reference.gemm_flops ~m ~n ~k:kk)
          in
          Printf.printf "  simulated: %.2f GFLOPS, %.0f cycles, TC utilization %.0f%%\n"
            (t.Launch.tflops *. 1e3) t.Launch.cycles (100.0 *. t.Launch.tc_utilization);
          emit_profile ~obs ~kernel_name:k.Kernel.name t
        | `Attention ->
          let tile_m, d_head =
            match store_tile k with Some x -> x | None -> (16, 8)
          in
          if functional then begin
            let q = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| l; d_head |] in
            let kt = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| l; d_head |] in
            let v = Tensor.random ~dtype:Dtype.F16 ~seed:3 [| l; d_head |] in
            let o = Tensor.create ~dtype:Dtype.F16 [| l; d_head |] in
            ignore
              (Launch.run_grid_functional ~cfg c.Flow.program
                 ~params:
                   [ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
                 ~grid:(l / tile_m, 1, 1));
            let want = Reference.attention ~out_dtype:Dtype.F16 ~q ~k:kt ~v () in
            let diff = Tensor.max_rel_diff o want in
            Printf.printf
              "kernel @%s (attention L=%d d=%d): max rel diff vs reference = %.2e %s\n"
              k.Kernel.name l d_head diff
              (if diff < 2e-2 then "[OK]" else "[MISMATCH]")
          end
          else begin
            Printf.printf
              "kernel @%s (attention L=%d d=%d): timing-only mode, functional \
               verification skipped\n"
              k.Kernel.name l d_head;
            let t =
              Launch.estimate ~cfg:tcfg c.Flow.program
                ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint l ]
                ~grid:(l / tile_m, 1, 1)
                ~flops:(Reference.attention_flops ~batch:1 ~heads:1 ~len:l
                          ~head_dim:d_head ())
            in
            Printf.printf
              "  simulated: %.2f GFLOPS, %.0f cycles, TC utilization %.0f%%\n"
              (t.Launch.tflops *. 1e3) t.Launch.cycles
              (100.0 *. t.Launch.tc_utilization)
          end
        | `Unknown ->
          Printf.printf "kernel @%s: unrecognized signature; compile-only\n" k.Kernel.name)
      kernels;
    0
  with
  | Elaborate.Elab_error (msg, pos) | Parser.Parse_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Sim.Sim_error msg ->
    Printf.eprintf "tawac: simulation failed: %s\n" msg;
    1

(* ---------------------------- profile ------------------------------ *)

(* Profile a kernel: run the timing simulation of its representative
   CTA and report where every warp group's cycles went (stall
   attribution) plus per-channel occupancy. The counters are
   engine-independent (identical under --engine reference and decoded),
   and so are the deep-profiler views: --ops attributes cycles to IR
   ops through the codegen source map, --channels reconstructs per-slot
   put/wait timelines from recorded channel events, --critical-path
   walks the recorded dependence events for the chain bounding the
   CTA's latency, and --trace writes a Chrome trace-event JSON with op
   and channel lanes (plus the legacy per-unit lanes under the
   reference engine). *)
let do_profile path kernel_name d p coop persistent coarse sw naive m n kk l engine obs
    trace_out show_ops show_channels show_cp emode =
  try
    let emode = Cli_args.resolve_mode ~default:Config.Timing emode in
    let options = Cli_args.options_of ~sw ~naive ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    if kernels = [] then begin
      Printf.eprintf "tawac: no kernels found\n";
      exit 1
    end;
    let tcfg = { Config.h100 with Config.engine } in
    let unknown = ref false in
    List.iter
      (fun k ->
        let c = Flow.compile ~options k in
        let launch =
          match classify_signature k with
          | `Gemm ->
            let tile_m, tile_n =
              match store_tile k with Some x -> x | None -> (16, 16)
            in
            (* Functional mode simulates the payload, so the TMA pointers
               must bind real buffers; timing mode only needs shapes. *)
            let ptrs =
              if emode = Config.Functional then
                [ Sim.Rtensor (Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |]);
                  Sim.Rtensor (Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |]);
                  Sim.Rtensor (Tensor.create ~dtype:Dtype.F16 [| m; n |]) ]
              else [ Sim.Rnone; Sim.Rnone; Sim.Rnone ]
            in
            Some
              ( ptrs @ [ Sim.Rint m; Sim.Rint n; Sim.Rint kk ],
                (m / tile_m, n / tile_n, 1),
                Reference.gemm_flops ~m ~n ~k:kk,
                Printf.sprintf "gemm %dx%dx%d" m n kk )
          | `Attention ->
            let tile_m, d_head =
              match store_tile k with Some x -> x | None -> (16, 8)
            in
            let ptrs =
              if emode = Config.Functional then
                [ Sim.Rtensor (Tensor.random ~dtype:Dtype.F16 ~seed:1 [| l; d_head |]);
                  Sim.Rtensor (Tensor.random ~dtype:Dtype.F16 ~seed:2 [| l; d_head |]);
                  Sim.Rtensor (Tensor.random ~dtype:Dtype.F16 ~seed:3 [| l; d_head |]);
                  Sim.Rtensor (Tensor.create ~dtype:Dtype.F16 [| l; d_head |]) ]
              else [ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rnone ]
            in
            Some
              ( ptrs @ [ Sim.Rint l ],
                (l / tile_m, 1, 1),
                Reference.attention_flops ~batch:1 ~heads:1 ~len:l ~head_dim:d_head (),
                Printf.sprintf "attention L=%d d=%d" l d_head )
          | `Unknown -> None
        in
        match launch with
        | None ->
          Printf.printf "kernel @%s: unrecognized signature; cannot profile\n"
            k.Kernel.name;
          unknown := true
        | Some (params, grid, flops, desc) ->
          let t =
            Launch.estimate ~mode:emode ~cfg:tcfg c.Flow.program ~params ~grid ~flops
          in
          (match obs with
          | `Json -> emit_profile ~obs:(Some `Json) ~kernel_name:k.Kernel.name t
          | `Table ->
            Printf.printf
              "kernel @%s (%s): %.0f cycles end-to-end, %.2f GFLOPS, TC utilization %.0f%%\n"
              k.Kernel.name desc t.Launch.cycles
              (t.Launch.tflops *. 1e3)
              (100.0 *. t.Launch.tc_utilization);
            (match t.Launch.profile with
            | Some prof ->
              Printf.printf "representative CTA: %.0f cycles\n" prof.Sim.wall
            | None -> ());
            emit_profile ~obs:(Some `Table) ~kernel_name:k.Kernel.name t);
          let program = c.Flow.program in
          if show_ops then
            (match t.Launch.profile with
            | Some prof -> print_string (Sim.op_table ~program prof)
            | None ->
              print_string "no representative-CTA profile available for --ops\n");
          if show_channels || show_cp || trace_out <> None then begin
            (* One recorded CTA; persistent kernels pop one SM's share
               of the tile queue, mirroring [Launch.estimate]. Both
               engines feed the recorder; the reference engine
               additionally keeps its legacy per-unit interval lanes. *)
            let cfg = { tcfg with Config.collect_trace = trace_out <> None } in
            let gx, gy, gz = grid in
            let pop () =
              if program.Tawa_machine.Isa.persistent then begin
                let total = gx * gy * gz in
                let share =
                  (total + cfg.Config.num_sms - 1) / cfg.Config.num_sms
                in
                Launch.queue_of_list
                  (List.init share (fun i -> i * cfg.Config.num_sms mod total))
              end
              else Launch.no_queue
            in
            let recorder = Tawa_obs.Prof.create () in
            let legacy, outcome =
              match Engine.resolve cfg with
              | Config.Reference ->
                let cta =
                  Sim.create ~recorder ~cfg ~program ~params
                    ~num_programs:[| gx; gy; gz |] ~pop_global:(pop ()) ()
                in
                let o = Sim.run cta in
                (List.rev cta.Sim.events, o)
              | Config.Decoded ->
                ( [],
                  Engine.run_cta ~recorder ~cfg ~program ~params
                    ~num_programs:[| gx; gy; gz |] ~pop_global:(pop ()) () )
            in
            let chan_label ch = Sim.chan_label_of ~program ch in
            let wg_label w = Sim.wg_label_of ~program w in
            let pc_label w pc = Sim.pc_label_of ~program w pc in
            if show_channels then begin
              print_string "channel timeline (puts and waits):\n";
              List.iter
                (fun (lane, t0, t1, label) ->
                  Printf.printf "  %-28s %10.1f .. %-10.1f %s\n" lane t0 t1 label)
                (Tawa_obs.Prof.channel_intervals recorder ~chan_label)
            end;
            if show_cp then begin
              let wg_times =
                Array.map
                  (fun w -> w.Sim.p_time)
                  outcome.Sim.profile.Sim.wg_profs
              in
              print_string
                (Tawa_obs.Prof.render_path
                   (Tawa_obs.Prof.critical_path recorder ~wg_times)
                   ~wg_label ~chan_label ~pc_label)
            end;
            match trace_out with
            | None -> ()
            | Some tpath ->
              let lanes =
                legacy
                @ Tawa_obs.Prof.op_intervals recorder ~wg_label ~pc_label
                @ Tawa_obs.Prof.channel_intervals recorder ~chan_label
              in
              Tawa_obs.Trace.to_file tpath (Tawa_obs.Trace.of_intervals lanes);
              Printf.printf "Chrome trace written to %s (load in Perfetto)\n"
                tpath
          end)
      kernels;
    if !unknown then 1 else 0
  with
  | Elaborate.Elab_error (msg, pos) | Parser.Parse_error (msg, pos) ->
    Printf.eprintf "%s:%d:%d: error: %s\n" path pos.Ast.line pos.Ast.col msg;
    1
  | Sim.Sim_error msg ->
    Printf.eprintf "tawac: simulation failed: %s\n" msg;
    1

(* ---------------------------- autotune ----------------------------- *)

let search_stats_to_json (r : Autotune.result) =
  let open Tawa_obs.Json in
  let s = r.Autotune.stats in
  Obj
    [ ("candidates", Int s.Autotune.total);
      ("pruned", Int s.Autotune.pruned);
      ( "prune_rate",
        Float
          (if s.Autotune.total = 0 then 0.0
           else float_of_int s.Autotune.pruned /. float_of_int s.Autotune.total) );
      ("measured", Int s.Autotune.measured);
      ("from_store", Bool s.Autotune.from_store);
      ("prune_fallback", Bool s.Autotune.prune_fallback);
      ("wall_seconds", Float s.Autotune.wall_seconds);
      ( "prune_reasons",
        Obj (List.map (fun (why, n) -> (why, Int n)) r.Autotune.prune_reasons) ) ]

let measurement_to_json (m : Autotune.measurement) =
  let open Tawa_obs.Json in
  let c = m.Autotune.candidate in
  Obj
    [ ("config", Str (Autotune.candidate_to_string c));
      ("block_m", Int c.Autotune.tiles.Kernels.block_m);
      ("block_n", Int c.Autotune.tiles.Kernels.block_n);
      ("block_k", Int c.Autotune.tiles.Kernels.block_k);
      ("aref_depth", Int c.Autotune.aref_depth);
      ("mma_depth", Int c.Autotune.mma_depth);
      ("coop", Int c.Autotune.coop);
      ("persistent", Bool c.Autotune.persistent);
      ("coarse", Bool c.Autotune.coarse);
      ("strategy", Str (Flow.strategy_key c.Autotune.strategy));
      ("tflops", Float m.Autotune.tflops);
      ("cycles", Float m.Autotune.cycles) ]

let do_autotune family m n kk l causal dtype store_path engine obs emode =
  try
    let emode = Cli_args.resolve_mode ~default:Config.Timing emode in
    ignore emode; (* the search always measures in timing mode *)
    let dtype =
      match dtype with `F16 -> Dtype.F16 | `F8 -> Dtype.F8E4M3
    in
    let fam, desc =
      match family with
      | `Gemm ->
        ( Autotune.Gemm { Workloads.m; n; k = kk; dtype },
          Printf.sprintf "gemm %dx%dx%d %s" m n kk (Dtype.to_string dtype) )
      | `Attention ->
        ( Autotune.Attention
            { Workloads.batch = 4; heads = 32; len = l; head_dim = 128; causal;
              mha_dtype = dtype },
          Printf.sprintf "attention L=%d%s %s" l
            (if causal then " causal" else "")
            (Dtype.to_string dtype) )
    in
    let store =
      Option.map
        (fun path -> Tawa_machine.Tunestore.open_ ~name:"tawac" ~path ())
        store_path
    in
    let cfg = { Config.h100 with Config.engine } in
    let r = Autotune.search ~cfg ?store fam in
    let s = r.Autotune.stats in
    let expert = Autotune.measure ~cfg fam (Autotune.expert fam) in
    let best = r.Autotune.best in
    let ratio =
      if expert.Autotune.tflops > 0.0 then
        best.Autotune.tflops /. expert.Autotune.tflops
      else 0.0
    in
    (match obs with
    | `Json ->
      let open Tawa_obs.Json in
      print_endline
        (to_string
           (Obj
              ([ ("family", Str (Autotune.family_tag fam));
                 ("workload", Str desc);
                 ("store_key", Str (Autotune.store_key fam));
                 ("search", search_stats_to_json r);
                 ("best", measurement_to_json best);
                 ("expert", measurement_to_json expert);
                 ("tuned_vs_expert", Float ratio) ]
              @
              match store with
              | None -> []
              | Some st ->
                let ss = Tawa_machine.Tunestore.stats st in
                [ ( "store",
                    Obj
                      [ ("path", Str (Option.get store_path));
                        ("entries", Int (Tawa_machine.Tunestore.length st));
                        ("hits", Int ss.Tawa_machine.Tunestore.hits);
                        ("misses", Int ss.Tawa_machine.Tunestore.misses);
                        ("stores", Int ss.Tawa_machine.Tunestore.stores) ] ) ])))
    | `Table ->
      Printf.printf "autotune %s\n" desc;
      if s.Autotune.from_store then
        Printf.printf
          "  served from the tuned-config store: 0 candidates measured\n"
      else begin
        Printf.printf
          "  candidates %d   pruned %d (%.1f%%)   measured %d   wall %.2f s\n"
          s.Autotune.total s.Autotune.pruned
          (if s.Autotune.total = 0 then 0.0
           else 100.0 *. float_of_int s.Autotune.pruned /. float_of_int s.Autotune.total)
          s.Autotune.measured s.Autotune.wall_seconds;
        List.iter
          (fun (why, cnt) -> Printf.printf "    pruned %3d: %s\n" cnt why)
          r.Autotune.prune_reasons;
        if s.Autotune.prune_fallback then
          Printf.printf
          "  note: the static occupancy model rejected every candidate (it \
           is conservative for this family); all candidates were measured\n"
      end;
      Printf.printf "  best:   %-42s %8.1f TFLOPS\n"
        (Autotune.candidate_to_string best.Autotune.candidate)
        best.Autotune.tflops;
      Printf.printf "  expert: %-42s %8.1f TFLOPS   tuned/expert %.3fx\n"
        (Autotune.candidate_to_string expert.Autotune.candidate)
        expert.Autotune.tflops ratio;
      match (store, store_path) with
      | Some st, Some path ->
        let ss = Tawa_machine.Tunestore.stats st in
        Printf.printf "  store:  %s: %d entr%s (hits %d, misses %d, stores %d)\n"
          path
          (Tawa_machine.Tunestore.length st)
          (if Tawa_machine.Tunestore.length st = 1 then "y" else "ies")
          ss.Tawa_machine.Tunestore.hits ss.Tawa_machine.Tunestore.misses
          ss.Tawa_machine.Tunestore.stores
      | _ -> ());
    if best.Autotune.tflops >= expert.Autotune.tflops then 0 else 0
  with Sim.Sim_error msg ->
    Printf.eprintf "tawac: simulation failed: %s\n" msg;
    1

let family_arg =
  let family_conv = Arg.enum [ ("gemm", `Gemm); ("attention", `Attention) ] in
  Arg.(value & opt family_conv `Gemm
       & info [ "family" ] ~docv:"FAMILY"
           ~doc:"Workload family to tune: $(b,gemm) (uses -m/-n/-k) or $(b,attention) \
                 (uses -l and $(b,--causal)).")

let causal_arg =
  Arg.(value & flag & info [ "causal" ] ~doc:"Causal attention (attention family only).")

let dtype_arg =
  let dtype_conv = Arg.enum [ ("f16", `F16); ("f8", `F8) ] in
  Arg.(value & opt dtype_conv `F16
       & info [ "dtype" ] ~docv:"DTYPE" ~doc:"Element type: $(b,f16) or $(b,f8).")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"PATH"
           ~doc:"Persistent tuned-config store (TSV). A prior result for the same \
                 kernel fingerprint and shape bucket is served without re-measuring; \
                 fresh results are saved.")

(* ----------------------------- graph ------------------------------- *)

(* Execute the demo task graphs through the wave scheduler: instantiate
   once (compile + decode + tunestore lookup per node), replay N times
   against the shared domain pool, and verify bit-identically against
   the serialized one-launch-per-node path. *)

let graph_verify_tol = 2e-2

let do_graph demo_name replays store_path obs trace_path =
  try
    let module Graph = Tawa_graph.Graph in
    let module Gallery = Tawa_graph.Gallery in
    let store =
      Option.map
        (fun path -> Tawa_machine.Tunestore.open_ ~name:"tawac" ~path ())
        store_path
    in
    let demos =
      if demo_name = "all" then Gallery.all
      else
        match
          List.find_opt (fun (n, _, _) -> n = demo_name) Gallery.all
        with
        | Some d -> [ d ]
        | None ->
          Printf.eprintf "tawac: unknown demo %s (have: %s)\n" demo_name
            (String.concat ", " (List.map (fun (n, _, _) -> n) Gallery.all));
          exit 1
    in
    let replays = max 1 replays in
    let failed = ref false in
    let sections =
      List.map
        (fun (name, title, build) ->
          let demo = build () in
          let t0 = Unix.gettimeofday () in
          let inst = Graph.instantiate ?store demo.Gallery.d_graph in
          let first = Graph.replay inst in
          let cold = Unix.gettimeofday () -. t0 in
          let runs = List.init (replays - 1) (fun _ -> Graph.replay inst) in
          let warm =
            List.fold_left
              (fun acc (r : Graph.run) -> Float.min acc r.Graph.r_seconds)
              first.Graph.r_seconds runs
          in
          (* An independent build of the same demo (same seeds) down the
             serialized path: per-node launches, no wave batching. *)
          let demo_s = build () in
          let inst_s = Graph.instantiate ?store demo_s.Gallery.d_graph in
          let serial = Graph.run_serial inst_s in
          let identical =
            List.for_all2
              (fun (_, got) (_, want) -> Tensor.equal got want)
              demo.Gallery.d_outputs demo_s.Gallery.d_outputs
          in
          let rel = Gallery.check demo in
          let ok = identical && rel < graph_verify_tol in
          if not ok then failed := true;
          let model = Graph.overlap_model inst first in
          (match trace_path with
          | None -> ()
          | Some path ->
            let path =
              if demo_name = "all" then
                let base = Filename.remove_extension path in
                let ext = Filename.extension path in
                Printf.sprintf "%s-%s%s" base name ext
              else path
            in
            Tawa_obs.Trace.to_file path (Graph.trace_events inst first);
            if obs = `Table then Printf.printf "wrote %s\n" path);
          (name, title, demo, inst, first, serial, cold, warm, model, identical,
           rel, ok))
        demos
    in
    (match obs with
    | `Json ->
      let open Tawa_obs.Json in
      print_endline
        (to_string
           (Obj
              (List.map
                 (fun ( name, title, _demo, inst, first, serial, cold, warm,
                        model, identical, rel, ok ) ->
                   ( name,
                     Obj
                       [ ("title", Str title);
                         ("nodes", Int (Graph.num_nodes inst.Graph.graph));
                         ( "edges",
                           Int (List.length inst.Graph.graph.Graph.edges) );
                         ("waves", Int (Graph.num_waves inst.Graph.graph));
                         ("replays", Int replays);
                         ("cold_seconds", Float cold);
                         ("warm_seconds", Float warm);
                         ( "replay_speedup",
                           Float (if warm > 0.0 then cold /. warm else 1.0) );
                         ("serial_wall_seconds", Float serial.Graph.r_seconds);
                         ("graph_wall_seconds", Float first.Graph.r_seconds);
                         ("model_serial_cycles", Float model.Graph.m_serial_cycles);
                         ("model_graph_cycles", Float model.Graph.m_graph_cycles);
                         ("model_speedup", Float model.Graph.m_speedup);
                         ( "per_wave",
                           List
                             (Array.to_list
                                (Array.map
                                   (fun (w : Graph.wave_model) ->
                                     Obj
                                       [ ("wave", Int w.Graph.wm_wave);
                                         ("ctas", Int w.Graph.wm_ctas);
                                         ("sm_rounds", Int w.Graph.wm_sm_waves);
                                         ("cycles", Float w.Graph.wm_cycles);
                                         ("occupancy", Float w.Graph.wm_occupancy) ])
                                   model.Graph.m_waves)) );
                         ("outputs_bit_identical_to_serial", Bool identical);
                         ("max_rel_diff_vs_reference", Float rel);
                         ("verified", Bool ok) ] ))
                 sections)))
    | `Table ->
      List.iter
        (fun ( name, title, demo, inst, first, serial, cold, warm, model,
               identical, rel, ok ) ->
          Printf.printf "graph %s: %s\n  %s\n" name title
            (Graph.summary demo.Gallery.d_graph);
          Array.iter
            (fun (w : Graph.wave_model) ->
              let members =
                first.Graph.r_waves.(w.Graph.wm_wave).Graph.wr_nodes
              in
              Printf.printf
                "  wave %d: %-34s %4d CTAs  %d SM round%s  occupancy %.2f\n"
                w.Graph.wm_wave
                (String.concat " "
                   (Array.to_list
                      (Array.map
                         (fun ni ->
                           let nr = first.Graph.r_nodes.(ni) in
                           if Graph.node_tuned inst ni then
                             nr.Graph.nr_name ^ "*"
                           else nr.Graph.nr_name)
                         members)))
                w.Graph.wm_ctas w.Graph.wm_sm_waves
                (if w.Graph.wm_sm_waves = 1 then "" else "s")
                w.Graph.wm_occupancy)
            model.Graph.m_waves;
          Printf.printf
            "  model: serial %.0f cycles, graph %.0f cycles, overlap speedup %.2fx\n"
            model.Graph.m_serial_cycles model.Graph.m_graph_cycles
            model.Graph.m_speedup;
          Printf.printf
            "  wall:  instantiate+first replay %.4f s, warm replay %.4f s \
             (best of %d), serial path %.4f s\n"
            cold warm replays serial.Graph.r_seconds;
          (match store with
          | None -> ()
          | Some _ ->
            let tuned =
              List.filter (Graph.node_tuned inst)
                (List.init (Graph.num_nodes inst.Graph.graph) Fun.id)
            in
            Printf.printf "  store: %d node%s auto-configured (*)\n"
              (List.length tuned)
              (if List.length tuned = 1 then "" else "s"));
          Printf.printf
            "  verify: %s serialized path, max rel diff vs CPU reference \
             %.2e  [%s]\n"
            (if identical then "bit-identical to" else "DIVERGES from")
            rel
            (if ok then "ok" else "FAIL"))
        sections);
    if !failed then 1 else 0
  with Sim.Sim_error msg ->
    Printf.eprintf "tawac: simulation failed: %s\n" msg;
    1

(* --------------------------- cmdliner ------------------------------ *)

(* Shared flags live in {!Cli_args}; only the flags unique to one
   subcommand are defined here. *)

let dump_ir_arg = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the transformed IR.")
let dump_asm_arg = Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the PTX-like machine code.")

let check_arg =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Run the arefcheck protocol analyses on the compiled kernel and fail on errors \
                 (also enabled by setting \\$(b,TAWA_CHECK) in the environment).")

let ids_arg =
  Arg.(value & flag
       & info [ "ids" ]
           ~doc:"With $(b,--dump-ir), annotate every op with its stable id so arefcheck \
                 diagnostics can be correlated with the dump.")

let compile_cmd =
  let doc = "compile tile kernels through the Tawa pipeline" in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const do_compile $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.sw
      $ Cli_args.naive $ dump_ir_arg $ dump_asm_arg $ check_arg $ ids_arg)

let check_cmd =
  let doc = "statically verify the aref protocol of compiled kernels (arefcheck)" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const do_check $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse)

let lint_cmd =
  let doc =
    "run the statcheck performance linter (dead stores, uninitialized reads, unused \
     channels, waits without producers, over-deep MMA pipelines, infeasible occupancy)"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const do_lint $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.obs)

let occupancy_cmd =
  let doc =
    "report the static register/SMEM occupancy model: per-warp-group footprint, SMEM \
     allocations, CTAs/SM and the limiting resource"
  in
  Cmd.v (Cmd.info "occupancy" ~doc)
    Term.(
      const do_occupancy $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.obs)

let run_cmd =
  let doc = "compile and execute kernels on the simulated H100" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const do_run $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.sw
      $ Cli_args.naive $ Cli_args.m () $ Cli_args.n () $ Cli_args.k () $ Cli_args.l ()
      $ Cli_args.engine $ Cli_args.obs_opt $ Cli_args.mode)

let profile_cmd =
  let doc =
    "profile kernels: per-warp-group stall attribution, channel occupancy, and \
     optional Chrome trace export"
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const do_profile $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.sw
      $ Cli_args.naive $ Cli_args.m () $ Cli_args.n () $ Cli_args.k () $ Cli_args.l ()
      $ Cli_args.engine $ Cli_args.obs $ Cli_args.trace $ Cli_args.ops
      $ Cli_args.channels $ Cli_args.critical_path $ Cli_args.mode)

let autotune_cmd =
  let doc =
    "search the configuration space of a workload family (tile shape, aref depth D, \
     MMA depth P, cooperative warp groups, persistence, coarse pipeline, lowering \
     strategy): statically prune with the occupancy model, measure survivors on the \
     timing simulator over the domain pool, and compare against the hand-scheduled \
     expert config"
  in
  Cmd.v (Cmd.info "autotune" ~doc)
    Term.(
      const do_autotune $ family_arg $ Cli_args.m ~default:8192 ()
      $ Cli_args.n ~default:8192 () $ Cli_args.k ~default:4096 ()
      $ Cli_args.l ~default:4096 () $ causal_arg $ dtype_arg $ store_arg
      $ Cli_args.engine $ Cli_args.obs $ Cli_args.mode)

let graph_cmd =
  let doc =
    "execute multi-kernel task graphs: infer tensor dependencies from kernel \
     read/write sets, batch ready nodes into waves over the shared domain pool, \
     replay the decoded graph without re-compiling or re-decoding, and verify \
     bit-identically against serialized launches"
  in
  Cmd.v (Cmd.info "graph" ~doc)
    Term.(
      const do_graph $ Cli_args.demo $ Cli_args.replays $ store_arg
      $ Cli_args.obs $ Cli_args.trace)

let () =
  (* Timers in --obs output should report wall clock, not CPU time. *)
  Tawa_obs.Registry.set_clock Unix.gettimeofday;
  (* The TAWA_* variables are read once here (the library reads no
     environment); command-line flags override them per command. *)
  Settings.of_env ();
  let doc = "Tawa: automatic warp specialization for (simulated) modern GPUs" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tawac" ~doc ~version:"1.0.0")
          [ compile_cmd; check_cmd; lint_cmd; occupancy_cmd; run_cmd; profile_cmd;
            autotune_cmd; graph_cmd ]))
