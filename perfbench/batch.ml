(* batch-1m: one instance of about 10^6 jobs, sized as the scale
   experiment sizes its cells (arrival window solved from the
   generator's own rate formula), on a fixed platform at 0.8 of the load
   its databank placement sustains, run through
   Sim.run_report_flat ~record:false under FCFS (static keys) and SWRPT
   (re-keyed dirty set).  Generation, the n-sized kernel columns, the
   priority walk and the metrics epilogue do the work; the solver none. *)

open Gripps_model
open Gripps_engine
module W = Gripps_workload
module LS = Gripps_sched.List_sched
module Obs = Gripps_obs.Obs

let target_jobs = function Bench.Full -> 1_000_000 | Bench.Tiny -> 5_000

let base_config =
  W.Config.make ~sites:3 ~databases:3 ~availability:0.6 ~density:1.0 ~horizon:1.0 ()

let rules = [ ("fcfs", LS.Rule_fcfs); ("swrpt", LS.Rule_swrpt) ]

type gen_times = { platform_s : float; jobs_s : float; make_s : float; density : float }

(* The platform is the same for every seed (drawn from
   [Bench.platform_seed]); the seed draws the jobs.  The density is
   [load] times the largest the platform's placement sustains: the
   generator gives every databank the same work rate, density * total
   speed / databases, so a set S of databanks is served only if
   |S| * density * total speed / databases <= the speed of S's hosts,
   which is [Check.placement_capacity] with unit sizes over the total
   speed.  Below that bound the backlog stays short whatever the seed;
   at or above it (density 1.0, as the scale experiment uses) the
   backlog is a random walk and the cost of a run varies with the seed.
   Per-databank rate = density * total speed / (databases * size_d) does
   not depend on the window, so the window that yields [n] jobs in
   expectation is n / (sum of the rates). *)
let load = 0.8

let generate ~seed n =
  let platform_s, r =
    Bench.time (fun () ->
        W.Generator.platform (Gripps_rng.Splitmix.create Bench.platform_seed) base_config)
  in
  let platform = r.W.Generator.platform in
  let total_speed = Platform.total_speed platform in
  let databases = base_config.W.Config.databases in
  let density =
    load *. Check.placement_capacity platform (Array.make databases 1.0) /. total_speed
  in
  let inv_sizes = Array.fold_left (fun s z -> s +. (1.0 /. z)) 0.0 r.W.Generator.db_sizes in
  let rate = density *. total_speed *. inv_sizes /. float_of_int databases in
  let c = { base_config with W.Config.density; horizon = float_of_int n /. rate } in
  let rng = Gripps_rng.Splitmix.create seed in
  let jobs_s, jobs = Bench.time (fun () -> W.Generator.jobs rng c r) in
  let make_s, inst = Bench.time (fun () -> Instance.make ~platform ~jobs) in
  ({ platform_s; jobs_s; make_s; density }, inst)

let run_rule ?(wrap = Fun.id) inst rule =
  Sim.run_report_flat ~horizon:1e12 ~record:false (wrap (LS.flat_scheduler rule)) inst

(* The rule's flat callback timed from outside: the whole per-replan
   scheduling step (re-keying and walk), accumulated into [acc.(0)]. *)
let timed_walk acc (fs : Sim.flat_scheduler) =
  { fs with
    Sim.fmake =
      (fun inst ->
        let f = fs.Sim.fmake inst in
        fun st buf ->
          let t0 = Unix.gettimeofday () in
          f st buf;
          acc.(0) <- acc.(0) +. (Unix.gettimeofday () -. t0)) }

let counter name = Option.value ~default:0 (Obs.counter_value name)

(* Completion dates against the lower bound, and the report's stretch
   figures against the completion vector; returns the time
   Metrics.of_completion takes on that vector. *)
let check_report tally inst name (rep : Sim.report) notes =
  match Check.completions inst rep.Sim.schedule.Schedule.completion with
  | Error e -> Bench.fail tally "%s: %s" name e; 0.0
  | Ok (completion, early, lead) ->
    if early > 0 then
      notes :=
        ( name ^ " jobs done before r + W/speed",
          Printf.sprintf "%d (largest lead %.3g s, within the sliver rule)" early lead )
        :: !notes;
    let mx, sum = Check.stretches inst completion in
    let m = rep.Sim.metrics in
    Bench.check tally
      (Check.rel_close ~tol:1e-9 mx m.Metrics.max_stretch
       && Check.rel_close ~tol:1e-9 sum m.Metrics.sum_stretch)
      "%s: report gives max/sum stretch (%.17g, %.17g), completions give (%.17g, %.17g)"
      name m.Metrics.max_stretch m.Metrics.sum_stretch mx sum;
    fst (Bench.time (fun () -> Metrics.of_completion inst ~completion))

let run ~size ~seed ~seconds ~trace =
  Gc_tune.throughput ();
  let n = target_jobs size in
  let tally = Bench.tally () in
  let live () = Gc.full_major (); (Gc.stat ()).Gc.live_words in
  let before = live () in
  (* Five set-ups, one instance alive at a time, so the heap peak is one
     instance's; the last one is measured. *)
  let setup_s, (times, inst) =
    Bench.setup_time ~samples:(if trace then 1 else 5) (fun () -> generate ~seed n)
  in
  let jobs = Instance.num_jobs inst in
  (* One attempt: a rule run over every job.  A job without a completion
     date, or every job of a run that raised, is a failure. *)
  let attempt ?wrap (name, rule) =
    tally.Bench.attempted <- tally.Bench.attempted + jobs;
    match run_rule ?wrap inst rule with
    | rep -> Some rep
    | exception e ->
      tally.Bench.failed <- tally.Bench.failed + jobs;
      Bench.fail tally "%s raised %s" name (Printexc.to_string e);
      None
  in
  let events reps =
    List.fold_left (fun a r -> match r with Some r -> a + r.Sim.events | None -> a) 0 reps
  in
  let metrics_s = ref 0.0 and notes = ref [] in
  (* Failure accounting on every round; the output checks on the first. *)
  let account ~check rules reps =
    List.iter2
      (fun (name, _) rep ->
        match rep with
        | None -> ()
        | Some rep ->
          Array.iter
            (fun c -> if c = None then tally.Bench.failed <- tally.Bench.failed + 1)
            rep.Sim.schedule.Schedule.completion;
          if check then metrics_s := !metrics_s +. check_report tally inst name rep notes)
      rules reps
  in
  let ev = ref 0 and rounds_note = ref "" in
  let metrics =
    if not trace then begin
      (* one rule run per round, the rules in turn *)
      let nrules = List.length rules in
      let walls =
        Bench.rounds ~seconds ~min_rounds:(2 * nrules) ~cycle:nrules (fun k ->
            let rule = List.nth rules (k mod nrules) in
            let w, rep = Bench.time (fun () -> attempt rule) in
            if k < nrules then ev := !ev + events [ rep ];
            account ~check:(k < nrules) [ rule ] [ rep ];
            w)
      in
      rounds_note := Bench.summary walls;
      let wall_s = Bench.typical ~cycle:nrules walls in
      [ ("setup_s", setup_s); ("wall_s", wall_s);
        ("events_per_s", float_of_int !ev /. wall_s) ]
    end
    else begin
      (* live words the instance holds, net of what was live before *)
      let inst_words = live () - before in
      let names = [ "sim.events"; "sim.replans"; "sim.minor_words" ] in
      let c0 = List.map counter names in
      (* major collections during the rule runs, not the forced ones
         between them *)
      let major_gcs = ref 0 in
      let timed =
        List.map
          (fun r ->
            Gc.full_major ();
            let g0 = (Gc.quick_stat ()).Gc.major_collections in
            let t = Bench.time (fun () -> attempt r) in
            major_gcs := !major_gcs + (Gc.quick_stat ()).Gc.major_collections - g0;
            t)
          rules
      in
      let d = List.map2 (fun n c -> (n, counter n - c)) names c0 in
      let reps = List.map snd timed in
      account ~check:true rules reps;
      ev := List.assoc "sim.events" d;
      let rule_s = List.map2 (fun (name, _) (w, _) -> (name, w)) rules timed in
      let plain_s = List.fold_left (fun a (_, w) -> a +. w) 0.0 rule_s in
      let walk = [| 0.0 |] in
      Gc.full_major ();
      let round_s, reps = Bench.time (fun () -> List.map (attempt ~wrap:(timed_walk walk)) rules) in
      account ~check:false rules reps;
      [ ("engine.peak_heap_mb", Bench.peak_heap_mb ());
        ("trace.round_s", round_s); ("trace.plain_round_s", plain_s);
        ("trace.overhead_ratio", round_s /. plain_s);
        ("workload.generate_s", times.platform_s); ("workload.jobs_s", times.jobs_s);
        ("model.instance_make_s", times.make_s);
        ("model.heap_bytes_per_job",
         float_of_int (inst_words * (Sys.word_size / 8)) /. float_of_int jobs);
        ("model.metrics_s", !metrics_s);
        ("engine.events", float_of_int !ev);
        ("engine.replans", float_of_int (List.assoc "sim.replans" d));
        ("engine.minor_words_per_event",
         float_of_int (List.assoc "sim.minor_words" d) /. float_of_int (max !ev 1));
        ("engine.major_gcs", float_of_int !major_gcs);
        ("engine.run_fcfs_s", List.assoc "fcfs" rule_s);
        ("engine.run_swrpt_s", List.assoc "swrpt" rule_s);
        ("sched.walk_s", walk.(0)); ("engine.kernel_s", round_s -. walk.(0)) ]
    end
  in
  Bench.outcome tally ~metrics
    ~details:
      ([ ("jobs", string_of_int jobs);
         ("density", Printf.sprintf "%.6g (%.2f of the placement bound)" times.density load);
         ("engine events per round", string_of_int !ev);
         ("gc", Gc_tune.describe ()); ("timed", !rounds_note) ]
      @ List.rev !notes)
