(* The benchmark command: one workload per process, on one domain.  The
   last line of standard output is the JSON result; a human-readable
   account goes to standard error.  See README.md. *)

let run_workload ~size (r : Args.run) =
  let go =
    match r.Args.workload with
    | Args.Paper_panel -> Panel.run
    | Args.Batch_1m -> Batch.run
    | Args.Serve_durable -> Serve.run
  in
  go ~size ~seed:r.Args.seed ~seconds:r.Args.seconds ~trace:r.Args.trace

let report (r : Args.run) (o : Bench.outcome) =
  Printf.eprintf "perfbench %s seed=%d trace=%b: attempted %d, failed %d, correct %b\n"
    (Args.workload_name r.Args.workload) r.Args.seed r.Args.trace o.Bench.attempted
    o.Bench.failed o.Bench.correct;
  List.iter (fun (k, v) -> Printf.eprintf "  %s: %s\n" k v) o.Bench.details;
  List.iter
    (fun (name, unit, v) -> Printf.eprintf "  %-32s %.6g %s\n" name v unit)
    (Bench.complete ~trace:r.Args.trace o.Bench.metrics);
  flush stderr

(* Every workload at its tiny size, untraced and traced, with all its
   checks, plus the argument validation: the benchmark's own test. *)
let self_check () =
  let ok = ref true in
  let expect cond fmt =
    Printf.ksprintf (fun msg -> if not cond then (ok := false; Printf.eprintf "FAIL %s\n%!" msg)) fmt
  in
  List.iter
    (fun argv ->
      expect (Result.is_error (Args.parse argv)) "accepted [%s]" (String.concat " " argv))
    Args.malformed;
  expect
    (Args.parse [ "--trace"; "1"; "--seconds"; "3"; "--seed"; "7"; "--workload"; "batch-1m" ]
     = Ok (Args.Run { Args.workload = Args.Batch_1m; seed = 7; seconds = 3.0; trace = true }))
    "a well-formed argument vector was refused";
  List.iter
    (fun (_, workload) ->
      List.iter
        (fun trace ->
          let r = { Args.workload; seed = 1; seconds = 1.0; trace } in
          let o = run_workload ~size:Bench.Tiny r in
          let name = Args.workload_name workload in
          let ok = o.Bench.correct && o.Bench.attempted > 0 && o.Bench.failed = 0 in
          if not ok then report r o;
          expect o.Bench.correct "%s (trace %b): output checks failed" name trace;
          expect (o.Bench.attempted > 0 && o.Bench.failed = 0)
            "%s (trace %b): attempted %d, failed %d" name trace o.Bench.attempted o.Bench.failed;
          (* the result line must render *)
          ignore (Bench.to_json ~trace o))
        [ false; true ])
    Args.workloads;
  if !ok then print_endline "perfbench self-check: ok"
  else begin
    print_endline "perfbench self-check: FAILED";
    exit 1
  end

let () =
  match Args.parse (List.tl (Array.to_list Sys.argv)) with
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    prerr_endline Args.usage;
    exit 2
  | Ok Args.Self_check -> self_check ()
  | Ok (Args.Run r) ->
    let o = run_workload ~size:Bench.Full r in
    report r o;
    print_endline (Bench.to_json ~trace:r.Args.trace o)
