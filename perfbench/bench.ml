(* What every workload shares: the clock, round loops, medians, the
   metric catalogue, failure accounting and the one-line JSON result. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* ---- statistics --------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between order statistics (the "inclusive"
   method); with one sample every quantile is that sample. *)
let quantile a q =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bench.quantile: no samples";
  let x = q *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

(* ---- run sizes ---------------------------------------------------------- *)

type size = Full | Tiny
(* [Tiny] is the self-check size: every workload with all its checks in
   a few seconds, so the benchmark's own test can run under
   [dune runtest]. *)

(* The seed the batch and daemon workloads draw their platform from, the
   same for every run: [--seed] draws the jobs, so runs of different
   seeds do the same work up to the jobs' randomness.  A platform drawn
   from [--seed] made the cost of a run vary by up to 1.6x between seeds
   (the daemon's backlog depends on which databanks the slow machines
   host), which no length of run averages out. *)
let platform_seed = 1

(* ---- memory ------------------------------------------------------------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

(* ---- timing loops ------------------------------------------------------- *)

(* Repeat [round] until [seconds] have elapsed, at least [min_rounds]
   ran and the rounds make whole cycles of [cycle].  [round k] times its
   own timed part and returns that wall time, so work around it (checks,
   accounting) stays outside the figure.  A full major collection before
   every round starts each one from the same heap state: the garbage of
   the previous round is not collected on the next round's clock.
   Rounds are whole, so every run attempts the same operations a whole
   number of times. *)
let rounds ?(cycle = 1) ~seconds ~min_rounds round =
  let walls = ref [] in
  let t_start = now () in
  let k = ref 0 in
  while !k < min_rounds || now () -. t_start < seconds || !k mod cycle <> 0 do
    Gc.full_major ();
    walls := round !k :: !walls;
    incr k
  done;
  Array.of_list (List.rev !walls)

(* The figure a run reports for rounds made in whole cycles of [cycle]
   (different work in each position of a cycle): the mean cost of one
   cycle, the rounds' total over the number of cycles.  On a shared
   machine other tenants slow memory-bound code by 10-20%, in phases of
   seconds to minutes that a simple reference loop does not track; the
   mean over the whole run averages the phases a run goes through.  Over
   ten seeds it spread less than the per-position median on batch-1m
   (0.083 against 0.119) and on a saturated daemon (0.131 against
   0.168), and alike on paper-panel (0.099 against 0.082); the fastest
   round spread most (0.14-0.23), as it depends on whether a run catches
   a quiet spell. *)
let typical ?(cycle = 1) walls =
  let n = Array.length walls in
  if n = 0 || n mod cycle <> 0 then invalid_arg "Bench.typical: rounds in whole cycles";
  Array.fold_left ( +. ) 0.0 walls /. float_of_int (n / cycle)

let summary walls =
  Printf.sprintf "%d rounds, min %.4g s, median %.4g s, mean %.4g s, max %.4g s: %s"
    (Array.length walls) (quantile walls 0.0) (median walls)
    (Array.fold_left ( +. ) 0.0 walls /. float_of_int (Array.length walls))
    (quantile walls 1.0)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3g") walls)))

(* The set-up time of one workload: the median over [samples] set-ups,
   each after a full major collection, so the previous set-up's garbage
   is not collected on the next one's clock.  The number of set-ups is
   fixed, never derived from a clock, so a run's allocations before its
   timed phase, and with them its heap peak, do not depend on timing.
   Returns the median and the last set-up's value. *)
let setup_time ~samples f =
  let last = ref None in
  let per =
    Array.init samples (fun _ ->
        last := None;
        Gc.full_major ();
        let w, v = time f in
        last := Some v;
        w)
  in
  (median per, Option.get !last)

(* ---- metric catalogue --------------------------------------------------- *)

(* End-to-end metrics, printed by untraced runs (the first end-to-end
   list of BENCHMARK.json). *)
let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("events_per_s", "1/s") ]

(* Per-layer metrics, printed by traced runs.  Each workload measures the
   layers it reaches and reports 0 for the others (see README). *)
let per_layer =
  [ (* tracing overhead, every workload *)
    ("trace.round_s", "s"); ("trace.plain_round_s", "s");
    ("trace.overhead_ratio", "ratio");
    (* workload and model: instance generation *)
    ("workload.generate_s", "s"); ("workload.jobs_s", "s");
    ("model.instance_make_s", "s"); ("model.heap_bytes_per_job", "B/job");
    ("model.metrics_s", "s");
    (* engine *)
    ("engine.peak_heap_mb", "MB");
    ("engine.events", "count"); ("engine.replans", "count");
    ("engine.minor_words_per_event", "words/event");
    ("engine.major_gcs", "count");
    ("engine.run_offline_s", "s"); ("engine.run_online_s", "s");
    ("engine.run_heuristic_s", "s");
    ("engine.run_fcfs_s", "s"); ("engine.run_swrpt_s", "s");
    ("engine.kernel_s", "s");
    (* sched *)
    ("sched.walk_s", "s");
    (* core *)
    ("core.solver_exact_s", "s"); ("core.solver_float_s", "s");
    ("core.online_replan_s", "s"); ("core.online_replans", "count");
    ("core.offline_solve_ms_p50", "ms"); ("core.offline_solve_ms_p90", "ms");
    ("core.exact_probes", "count"); ("core.float_probes", "count");
    ("core.graph_builds", "count"); ("core.warm_updates", "count");
    (* flow and numeric *)
    ("flow.augmenting_paths", "count");
    ("numeric.rat_fast_hits", "count"); ("numeric.rat_fast_falls", "count");
    ("numeric.rat_fast_ratio", "ratio");
    (* experiments *)
    ("experiments.aggregate_s", "s");
    (* workload stream and service *)
    ("workload.source_draw_s", "s");
    ("service.ns_per_event", "ns/event");
    ("service.minor_words_per_event", "words/event");
    ("service.events", "count"); ("service.replans", "count");
    ("service.enqueued", "count"); ("service.peak_live", "count");
    ("service.peak_queue", "count");
    ("service.checkpoint_s", "s"); ("service.checkpoints", "count");
    ("service.checkpoint_bytes", "B"); ("service.restore_s", "s");
    (* obs *)
    ("obs.journal_s", "s"); ("obs.journal_records", "count");
    ("obs.journal_bytes_per_event", "B/event");
    ("obs.journal_encode_s", "s"); ("obs.journal_decode_s", "s") ]

(* ---- outcome ------------------------------------------------------------ *)

(* Failure accounting: the operation a workload counts (scheduler runs,
   jobs offered to a daemon) and how many of them failed.  [errors] holds
   every output check that did not pass. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let check t ok fmt =
  Printf.ksprintf (fun msg -> if not ok then t.errors <- msg :: t.errors) fmt

let fail t fmt = check t false fmt

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  details : (string * string) list;  (* human-readable, for stderr *)
}

let outcome t ~metrics ~details =
  { correct = t.errors = []; attempted = t.attempted; failed = t.failed; metrics;
    details =
      List.filter (fun (_, v) -> v <> "") details
      @ List.rev_map (fun e -> ("check failed", e)) t.errors }

(* The catalogue a run must print, with every value the workload measured
   and 0 for the layers it does not reach.  A workload reporting a name
   outside the catalogue is a programming error. *)
let complete ~trace metrics =
  let catalogue = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Bench.complete: metric outside the catalogue: " ^ name))
    metrics;
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0.0 (List.assoc_opt name metrics) in
      (name, unit, v))
    catalogue

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Bench.json_number: non-finite metric"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json ~trace o =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    o.correct o.attempted o.failed;
  List.iteri
    (fun i (name, unit, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
        (json_number v) (json_string unit))
    (complete ~trace o.metrics);
  Buffer.add_string b "}}";
  Buffer.contents b

(* ---- scratch directory -------------------------------------------------- *)

(* Runs that write (the durable daemon's journal and checkpoints) work
   under this directory of the current checkout, and remove it when
   done. *)
let work_root = ".perfbench-work"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_work_dir name f =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      (* the root goes too once no other run uses it *)
      try Unix.rmdir work_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let file_size path = (Unix.stat path).Unix.st_size
