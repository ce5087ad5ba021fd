(* serve-durable: the streaming daemon, Service.run, on an open-loop
   Poisson stream offered at 0.8 of the placement-aware capacity λ*
   (Check.placement_capacity), with Drop admission, SWRPT, a 4096-slot
   pool, a journal directory and checkpoints on: journal encoding and
   checkpoint writes dominate, and the daemon's walk and heaps run
   under them. *)

open Gripps_model
module W = Gripps_workload
module Svc = Gripps_service.Service
module J = Gripps_obs.Obs.Journal

type params = { jobs : int; load : float }

let params = function
  | Bench.Full -> { jobs = 25_000; load = 0.8 }
  | Bench.Tiny -> { jobs = 2_000; load = 0.8 }

let max_live = 4096
let queue_cap = 1024

let platform_config =
  W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon:60.0 ()

type setup = {
  platform : Platform.t;
  sizes : float array;
  capacity : float;  (* λ*, jobs/s *)
  rate : float;      (* offered rate *)
  stream_seed : int;
  offered : float;   (* the drawn stream's jobs / last release date *)
  counts : int array;  (* jobs per databank in the drawn stream *)
  last_release : float;
}

let stream s p = W.Source.poisson ~seed:s.stream_seed ~rate:s.rate ~sizes:s.sizes ~jobs:p.jobs ()

(* The offered stream, drawn in full apart from the daemon: its length,
   its realized rate (jobs over the last release date) and each
   databank's share of the jobs, each within five standard deviations of
   what the rate and the uniform databank pick promise. *)
let check_stream tally s p =
  let src = stream s p in
  let d = Array.length s.sizes in
  let per_db = Array.make d 0 and count = ref 0 and last = ref 0.0 in
  while not (W.Source.exhausted src) do
    let db = W.Source.next_databank src in
    if db >= 0 && db < d then per_db.(db) <- per_db.(db) + 1;
    last := W.Source.next_release src;
    incr count;
    W.Source.drop src
  done;
  let n = float_of_int p.jobs in
  Bench.check tally (!count = p.jobs) "stream: %d items drawn, %d offered" !count p.jobs;
  let offered = float_of_int !count /. !last in
  Bench.check tally
    (Float.abs ((offered /. s.rate) -. 1.0) <= 5.0 /. sqrt n)
    "stream: realized rate %.6g, target %.6g" offered s.rate;
  let share = 1.0 /. float_of_int d in
  let sd = sqrt (share *. (1.0 -. share) /. n) in
  Array.iteri
    (fun k c ->
      Bench.check tally
        (Float.abs ((float_of_int c /. n) -. share) <= 5.0 *. sd)
        "stream: databank %d has %d of %d jobs" k c p.jobs)
    per_db;
  (offered, per_db, !last)

(* Set-up: draw the fixed platform (Bench.platform_seed), solve λ* and
   draw the offered stream of the seed once to check it. *)
let setup tally ~seed p =
  let r = W.Generator.platform (Gripps_rng.Splitmix.create Bench.platform_seed) platform_config in
  let platform = r.W.Generator.platform and sizes = r.W.Generator.db_sizes in
  let capacity = Check.placement_capacity platform sizes in
  let s =
    { platform; sizes; capacity; rate = p.load *. capacity; stream_seed = seed; offered = 0.0;
      counts = [||]; last_release = 0.0 }
  in
  let offered, counts, last_release = check_stream tally s p in
  { s with offered; counts; last_release }

let source ~cursor ~clock s p =
  W.Source.poisson ~seed:s.stream_seed ~rate:s.rate ~sizes:s.sizes ~jobs:p.jobs ~cursor
    ~clock ()

let config ?(journal = true) ?(checkpoints = true) ~dir s p =
  let path name = Filename.concat dir name in
  let journal_dir = if journal then Some (path "journal") else None in
  let checkpoint = if checkpoints then Some (path "checkpoint") else None in
  Svc.config ~platform:s.platform ~rule:Svc.Swrpt ~policy:Svc.Drop ~max_live ~queue_cap
    ?journal_dir ?checkpoint
    ~source_desc:(Printf.sprintf "perfbench:seed=%d:jobs=%d" s.stream_seed p.jobs)
    ()

let journal_bytes dir =
  String.concat "" (List.map Gripps_obs.Fsio.read_file (Svc.segment_files ~dir))

(* Every offered job was admitted and completed exactly once, from the
   daemon's own counters; and the report's figures are no better than the
   drawn stream allows: a job of databank d runs at most at the speed of
   d's hosts and loses at most its sliver (1e-9 W_j for a stream), and
   all the work is done by the makespan at the platform's total speed. *)
let check_report tally ~what s p (r : Svc.report) =
  let speeds = Check.host_speeds s.platform in
  let floor = 1.0 -. 1e-9 in
  let sum_stretch = ref 0.0 and sum_flow = ref 0.0 and max_stretch = ref 0.0 in
  let work = ref 0.0 in
  Array.iteri
    (fun d c ->
      let c = float_of_int c in
      sum_stretch := !sum_stretch +. (c *. floor /. speeds.(d));
      sum_flow := !sum_flow +. (c *. floor *. s.sizes.(d) /. speeds.(d));
      work := !work +. (c *. s.sizes.(d));
      if c > 0.0 then max_stretch := Float.max !max_stretch (floor /. speeds.(d)))
    s.counts;
  let m = r.Svc.metrics in
  Bench.check tally
    (m.Svc.sum_stretch >= !sum_stretch && m.Svc.sum_flow >= !sum_flow
     && m.Svc.max_stretch >= !max_stretch)
    "%s: sum-stretch %.17g, sum-flow %.17g, max-stretch %.17g below their floors %.17g, \
     %.17g, %.17g"
    what m.Svc.sum_stretch m.Svc.sum_flow m.Svc.max_stretch !sum_stretch !sum_flow !max_stretch;
  Bench.check tally
    (m.Svc.makespan >= s.last_release
     && m.Svc.makespan >= floor *. !work /. Platform.total_speed s.platform)
    "%s: makespan %.17g before the last release %.17g or the total work's end" what
    m.Svc.makespan s.last_release;
  Bench.check tally (r.Svc.outcome = Svc.Drained) "%s: the daemon did not drain" what;
  Bench.check tally (r.Svc.source_cursor = p.jobs) "%s: consumed %d of %d offered jobs" what
    r.Svc.source_cursor p.jobs;
  Bench.check tally
    (r.Svc.admitted = p.jobs && r.Svc.metrics.Svc.completed = p.jobs)
    "%s: %d offered, %d admitted, %d completed" what p.jobs r.Svc.admitted
    r.Svc.metrics.Svc.completed;
  Bench.check tally (r.Svc.peak_live <= max_live && r.Svc.peak_queue <= queue_cap)
    "%s: peak live %d / queue %d above the pool %d / %d" what r.Svc.peak_live
    r.Svc.peak_queue max_live queue_cap

(* The same, from the journal read back from disk: one arrival and one
   completion per offered job, each completion after its arrival. *)
let check_journal tally p events =
  let arrived = Array.make p.jobs nan and completed = Array.make p.jobs 0 in
  let bad = ref 0 in
  List.iter
    (function
      | J.Sim_event { time; kind = J.Arrival; subject } ->
        if subject < 0 || subject >= p.jobs || not (Float.is_nan arrived.(subject)) then
          incr bad
        else arrived.(subject) <- time
      | J.Sim_event { time; kind = J.Completion; subject } ->
        if subject < 0 || subject >= p.jobs || not (time >= arrived.(subject)) then incr bad
        else completed.(subject) <- completed.(subject) + 1
      | _ -> ())
    events;
  let once = Array.fold_left (fun a c -> if c = 1 then a + 1 else a) 0 completed in
  Bench.check tally (!bad = 0 && once = p.jobs)
    "journal: %d of %d jobs completed exactly once, %d malformed records" once p.jobs !bad

(* The report fields a kill-and-resume must reproduce: everything but the
   wall-clock latency percentile. *)
let same_run (a : Svc.report) (b : Svc.report) =
  { a with Svc.replan_p99_s = 0.0; checkpoints = 0; deadline_misses = 0 }
  = { b with Svc.replan_p99_s = 0.0; checkpoints = 0; deadline_misses = 0 }

exception Daemon_failed

(* The timed phase, untraced or traced; returns the metrics, a note on
   the rounds and the report of the last full run, whose journal is the
   one on disk. *)
let measure ~p ~s ~dir ~seconds ~trace ~setup_s tally
    (attempt : ?journal:bool -> ?checkpoints:bool -> unit -> float * Svc.report) =
  let last = ref None and rounds_note = ref "" in
  let metrics =
    if not trace then begin
      let walls =
        Bench.rounds ~seconds ~min_rounds:2 (fun _ ->
            let w, r = attempt () in
            check_report tally ~what:"run" s p r;
            last := Some r;
            w)
      in
      rounds_note := Bench.summary walls;
      let wall_s = Bench.typical walls in
      let r = Option.get !last in
      [ ("setup_s", setup_s); ("wall_s", wall_s);
        ("events_per_s", float_of_int r.Svc.events /. wall_s) ]
    end
    else begin
      Gc.full_major ();
      let plain_s, _ = attempt () in
      Gc.full_major ();
      let mw0 = Gc.minor_words () in
      let round_s, r = attempt () in
      let words = Gc.minor_words () -. mw0 in
      last := Some r;
      let events = float_of_int r.Svc.events in
      let common =
        [ ("engine.peak_heap_mb", Bench.peak_heap_mb ());
          ("trace.round_s", round_s); ("trace.plain_round_s", plain_s);
          ("trace.overhead_ratio", round_s /. plain_s);
          ("service.ns_per_event", round_s *. 1e9 /. events);
          ("service.minor_words_per_event", words /. events);
          ("service.events", events); ("service.replans", float_of_int r.Svc.replans);
          ("service.enqueued", float_of_int r.Svc.enqueued);
          ("service.peak_live", float_of_int r.Svc.peak_live);
          ("service.peak_queue", float_of_int r.Svc.peak_queue) ]
      in
      (* the offered stream drained alone, the median of five draws *)
      let draw_s =
        Bench.median
          (Array.init 5 (fun _ ->
               let src = stream s p in
               fst
                 (Bench.time (fun () ->
                      while not (W.Source.exhausted src) do
                        W.Source.drop src
                      done))))
      in
      let jdir = Filename.concat dir "journal" in
      let ckpt = Filename.concat dir "checkpoint" in
      let bytes = List.fold_left (fun a f -> a + Bench.file_size f) 0 (Svc.segment_files ~dir:jdir) in
      let ckpt_bytes = Bench.file_size ckpt in
      let decode_s, evs = Bench.time (fun () -> Svc.read_journal ~dir:jdir) in
      let encode_s, () = Bench.time (fun () -> List.iter (fun e -> ignore (J.to_json e)) evs) in
      let restore_s, _ =
        Bench.time (fun () ->
            Svc.resume (config ~dir s p) (fun ~cursor ~clock -> source ~cursor ~clock s p))
      in
      (* ablations: the same stream without the journal, and without
         checkpoints, interleaved with full runs, three of each; the
         medians' differences are the two costs.  The journal and
         checkpoint files on disk are a full run's again afterwards. *)
      let triples =
        Array.init 3 (fun _ ->
            let no_journal_s, _ = attempt ~journal:false () in
            let no_ckpt_s, _ = attempt ~checkpoints:false () in
            let full_s, r' = attempt () in
            last := Some r';
            (full_s, no_journal_s, no_ckpt_s))
      in
      let med f = Bench.median (Array.map f triples) in
      let full_s = med (fun (f, _, _) -> f) in
      common
      @ [ ("workload.source_draw_s", draw_s);
          ("obs.journal_s", full_s -. med (fun (_, j, _) -> j));
          ("service.checkpoint_s", full_s -. med (fun (_, _, c) -> c));
          ("obs.journal_records", float_of_int (List.length evs));
          ("obs.journal_bytes_per_event", float_of_int bytes /. events);
          ("obs.journal_encode_s", encode_s); ("obs.journal_decode_s", decode_s);
          ("service.checkpoints", float_of_int r.Svc.checkpoints);
          ("service.checkpoint_bytes", float_of_int ckpt_bytes);
          ("service.restore_s", restore_s) ]
    end
  in
  (metrics, !rounds_note, Option.get !last)

(* The journal read back from disk; then a kill at mid-stream, a resume
   from the last checkpoint, and the report and journal bytes compared
   with the uninterrupted run [r]. *)
let check_resume tally ~dir s p (r : Svc.report) =
  let jdir = Filename.concat dir "journal" in
  check_journal tally p (Svc.read_journal ~dir:jdir);
  let full_journal = journal_bytes jdir in
  let kdir = Filename.concat dir "killed" in
  Unix.mkdir kdir 0o755;
  let cfg = config ~dir:kdir s p in
  let killed = Svc.run ~stop_after_events:(r.Svc.events / 2) cfg (stream s p) in
  Bench.check tally (killed.Svc.outcome = Svc.Killed) "kill: the daemon was not stopped";
  let resumed = Svc.resume cfg (fun ~cursor ~clock -> source ~cursor ~clock s p) in
  check_report tally ~what:"resumed run" s p resumed;
  Bench.check tally (same_run r resumed) "resume: the report differs from the uninterrupted run";
  Bench.check tally
    (journal_bytes (Filename.concat kdir "journal") = full_journal)
    "resume: the journal differs from the uninterrupted run's"

let run ~size ~seed ~seconds ~trace =
  Gripps_engine.Gc_tune.throughput ();
  let p = params size in
  let tally = Bench.tally () in
  (* the stream is checked on every set-up; report each failure once *)
  let setup_s, s =
    Bench.setup_time ~samples:(if trace then 1 else 25) (fun () ->
        let t = Bench.tally () in
        let s = setup t ~seed p in
        tally.Bench.errors <- t.Bench.errors;
        s)
  in
  Bench.with_work_dir "serve-durable" @@ fun dir ->
  (* One attempt: every offered job; those that do not complete failed,
     and all of them when the daemon raises, which ends the workload. *)
  let attempt ?journal ?checkpoints () =
    let cfg = config ?journal ?checkpoints ~dir s p in
    let src = stream s p in
    tally.Bench.attempted <- tally.Bench.attempted + p.jobs;
    match Bench.time (fun () -> Svc.run cfg src) with
    | w, r ->
      tally.Bench.failed <- tally.Bench.failed + (p.jobs - r.Svc.metrics.Svc.completed);
      (w, r)
    | exception e ->
      tally.Bench.failed <- tally.Bench.failed + p.jobs;
      Bench.fail tally "the daemon raised %s" (Printexc.to_string e);
      raise Daemon_failed
  in
  match measure ~p ~s ~dir ~seconds ~trace ~setup_s tally attempt with
  | exception Daemon_failed -> Bench.outcome tally ~metrics:[] ~details:[]
  | metrics, rounds_note, r ->
    (* untraced rounds check every run as it ends *)
    if trace then check_report tally ~what:"run" s p r;
    (try check_resume tally ~dir s p r
     with e -> Bench.fail tally "kill and resume raised %s" (Printexc.to_string e));
    Bench.outcome tally ~metrics
      ~details:
        [ ("offered jobs per round", string_of_int p.jobs);
          ("capacity lambda* (jobs/s)", Printf.sprintf "%.6g" s.capacity);
          ("offered rate (jobs/s)",
           Printf.sprintf "%.6g (%.2f lambda*), drawn %.6g" s.rate p.load s.offered);
          ("engine events per round", string_of_int r.Svc.events);
          ("dropped / shed", Printf.sprintf "%d / %d" r.Svc.dropped r.Svc.shed);
          ("peak live / queue", Printf.sprintf "%d / %d" r.Svc.peak_live r.Svc.peak_queue);
          ("gc", Gripps_engine.Gc_tune.describe ()); ("timed", rounds_note) ]
