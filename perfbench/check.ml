(* Output checks computed apart from the code under test.  They read only
   the model's data (job release dates and sizes, machine speeds and
   databank replicas) and the outputs to judge; none calls the engine's,
   the schedulers' or the solver's own validation or metrics code. *)

open Gripps_model

let rel_close ~tol a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* Aggregate speed of the machines holding each databank. *)
let host_speeds platform =
  let ms = Platform.machines platform in
  Array.init (Platform.num_databanks platform) (fun d ->
      Array.fold_left
        (fun acc (m : Machine.t) -> if m.Machine.databanks.(d) then acc +. m.Machine.speed else acc)
        0.0 ms)

(* ---- the engine's stated error bound ------------------------------------ *)

(* The fluid engine finishes a job off once its remaining work falls
   below its sliver, [1e-9 * max(W_j, total work)] (Kernel: Sim sets the
   yardstick to the instance's total work).  A job may therefore complete
   with up to that much of its work undone; the checks below allow
   exactly this and no more. *)
let slivers inst =
  let jobs = Instance.jobs inst in
  let total = Array.fold_left (fun a (j : Job.t) -> a +. j.Job.size) 0.0 jobs in
  Array.map (fun (j : Job.t) -> 1e-9 *. Float.max j.Job.size total) jobs

(* How far below the exact optimum a schedule with slivers left undone
   can bring the max-stretch.  Finishing job k's sliver on all the hosts
   of its databank, right at its completion, delays everything after by
   sliver_k / speed_k; so the exact optimum is at most the realized
   max-stretch plus (sum_k sliver_k / speed_k) / min_j W_j. *)
let sliver_stretch_slack inst =
  let jobs = Instance.jobs inst in
  let speeds = host_speeds (Instance.platform inst) in
  let sl = slivers inst in
  let delay = ref 0.0 and w_min = ref infinity in
  Array.iteri
    (fun k (j : Job.t) ->
      delay := !delay +. (sl.(k) /. speeds.(j.Job.databank));
      if j.Job.size < !w_min then w_min := j.Job.size)
    jobs;
  !delay /. !w_min

(* ---- recorded schedules ------------------------------------------------- *)

(* Validate a recorded fluid schedule against the divisible model: every
   job receives exactly its size, up to the kernel's stated completion
   rules; no work runs before its release date,
   after its completion, or on a machine without a replica of its
   databank; no machine is oversubscribed.  Returns the completion
   vector on success. *)
let schedule inst (sch : Schedule.t) : (float array, string) result =
  let jobs = Instance.jobs inst in
  let n = Array.length jobs in
  let machines = Platform.machines (Instance.platform inst) in
  let nm = Array.length machines in
  let work = Array.make n 0.0 in
  let last_end = Array.make n neg_infinity in
  let err = ref None in
  let bad fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  let completion =
    Array.init n (fun j ->
        match sch.Schedule.completion.(j) with
        | Some c -> c
        | None -> bad "job %d has no completion date" j; nan)
  in
  let prev_end = ref neg_infinity in
  List.iter
    (fun (seg : Schedule.segment) ->
      let t0 = seg.Schedule.start_time and t1 = seg.Schedule.end_time in
      let dt = t1 -. t0 in
      if not (dt >= 0.0) then bad "segment [%g, %g] runs backwards" t0 t1;
      if t0 < !prev_end -. (1e-9 *. Float.max 1.0 (Float.abs t0)) then
        bad "segment at %g overlaps the previous one ending at %g" t0 !prev_end;
      prev_end := t1;
      List.iter
        (fun (mid, shares) ->
          if mid < 0 || mid >= nm then bad "segment at %g uses unknown machine %d" t0 mid
          else begin
            let m = machines.(mid) in
            let load =
              List.fold_left
                (fun acc (j, share) ->
                  if j < 0 || j >= n then (bad "unknown job %d" j; acc)
                  else begin
                    let job = jobs.(j) in
                    if not (share > 0.0) then bad "job %d has share %g" j share;
                    if not m.Machine.databanks.(job.Job.databank) then
                      bad "job %d runs on machine %d, which lacks databank %d" j mid
                        job.Job.databank;
                    if t0 < job.Job.release -. (1e-9 *. Float.max 1.0 job.Job.release) then
                      bad "job %d runs at %.17g before its release %.17g" j t0
                        job.Job.release;
                    if t0 > completion.(j) +. (1e-9 *. Float.max 1.0 completion.(j)) then
                      bad "job %d runs at %.17g after its completion %.17g" j t0
                        completion.(j);
                    work.(j) <- work.(j) +. (share *. m.Machine.speed *. dt);
                    if t1 > last_end.(j) then last_end.(j) <- t1;
                    acc +. share
                  end)
                0.0 shares
            in
            if load > 1.0 +. 1e-9 then
              bad "machine %d is oversubscribed (%.17g) at %g" mid load t0
          end)
        seg.Schedule.shares)
    sch.Schedule.segments;
  let sl = slivers inst in
  let speeds = host_speeds (Instance.platform inst) in
  Array.iteri
    (fun j (job : Job.t) ->
      let w = job.Job.size in
      (* The kernel also completes a job at its exact finishing date when
         that date lies within 1e-9 * max(1, t) of the segment's end t:
         the recorded work may then miss or exceed W_j by what the
         job's hosts deliver in that interval. *)
      let ct = if Float.is_nan completion.(j) then 0.0 else completion.(j) in
      let slack = (1e-9 *. w) +. (speeds.(job.Job.databank) *. 1e-9 *. Float.max 1.0 ct) in
      if work.(j) > w +. slack || work.(j) < w -. slack -. sl.(j) then
        bad "job %d received %.17g of its %.17g Mflop" j work.(j) job.Job.size;
      if completion.(j) > last_end.(j) +. (1e-9 *. Float.max 1.0 last_end.(j)) then
        bad "job %d completes at %.17g after its last work at %.17g" j completion.(j)
          last_end.(j))
    jobs;
  match !err with Some e -> Error e | None -> Ok completion

(* Max- and sum-stretch of a completion vector, in the paper's units:
   S_j = (C_j - r_j) / W_j. *)
let stretches inst completion =
  let mx = ref 0.0 and sum = ref 0.0 in
  Array.iteri
    (fun j (job : Job.t) ->
      let s = (completion.(j) -. job.Job.release) /. job.Job.size in
      if s > !mx then mx := s;
      sum := !sum +. s)
    (Instance.jobs inst);
  (!mx, !sum)

(* Every job completed, no earlier than it could alone on all the hosts of
   its databank: C_j >= r_j + (W_j - sliver_j) / speed(hosts(db_j)).
   Returns the completion vector, the number of jobs that complete before
   the sliver-free bound r_j + W_j / speed, and the largest such lead in
   seconds. *)
let completions inst (completion : float option array) =
  let jobs = Instance.jobs inst in
  let speeds = host_speeds (Instance.platform inst) in
  let sl = slivers inst in
  let early = ref 0 and lead = ref 0.0 in
  let err = ref None in
  let bad fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  if Array.length completion <> Array.length jobs then
    bad "completion vector has %d entries for %d jobs" (Array.length completion)
      (Array.length jobs);
  let c =
    Array.mapi
      (fun j (job : Job.t) ->
        match completion.(j) with
        | None -> bad "job %d did not complete" j; nan
        | Some c ->
          let speed = speeds.(job.Job.databank) in
          let exact = job.Job.release +. (job.Job.size /. speed) in
          let bound = job.Job.release +. ((job.Job.size -. sl.(j)) /. speed) in
          if c < bound -. (1e-9 *. Float.max 1.0 bound) then
            bad "job %d completes at %.17g, before its lower bound %.17g" j c bound;
          if c < exact then begin
            incr early;
            if exact -. c > !lead then lead := exact -. c
          end;
          c)
      jobs
  in
  match !err with Some e -> Error e | None -> Ok (c, !early, !lead)

(* ---- System (1) as a linear program ------------------------------------- *)

module Q = Gripps_numeric.Rat
module L = Gripps_lp.Lp.Rat_lp

(* Is max-stretch [stretch] achievable?  System (1) of the paper written
   on the real machines (no aggregation) with the exact rational simplex:
   job j must receive W_j units of work from hosts of its databank within
   [r_j, r_j + stretch * W_j]; between consecutive release dates and
   deadlines, machine i supplies at most speed_i times the interval's
   length. *)
let system1_feasible inst ~stretch =
  let jobs = Instance.jobs inst in
  let machines = Platform.machines (Instance.platform inst) in
  let n = Array.length jobs and nm = Array.length machines in
  let release j = Q.of_float jobs.(j).Job.release in
  let size j = Q.of_float jobs.(j).Job.size in
  let deadline j = Q.add (release j) (Q.mul stretch (size j)) in
  let points =
    List.init n release @ List.init n deadline
    |> List.sort_uniq Q.compare |> Array.of_list
  in
  let nt = Array.length points - 1 in
  let m = L.create () in
  (* per-job and per-(machine, interval) variable lists *)
  let of_job = Array.make n [] and of_slot = Array.make_matrix (max nt 0) nm [] in
  for j = 0 to n - 1 do
    for t = 0 to nt - 1 do
      if Q.ge points.(t) (release j) && Q.le points.(t + 1) (deadline j) then
        Array.iteri
          (fun i (mc : Machine.t) ->
            if mc.Machine.databanks.(jobs.(j).Job.databank) then begin
              let x = L.v (L.variable m "w") in
              of_job.(j) <- x :: of_job.(j);
              of_slot.(t).(i) <- x :: of_slot.(t).(i)
            end)
          machines
    done
  done;
  if Array.exists (fun l -> l = []) of_job then false
  else begin
    Array.iteri (fun j xs -> L.eq m (L.sum xs) (L.const (size j))) of_job;
    for t = 0 to nt - 1 do
      Array.iteri
        (fun i xs ->
          if xs <> [] then
            L.le m (L.sum xs)
              (L.const
                 (Q.mul (Q.sub points.(t + 1) points.(t))
                    (Q.of_float machines.(i).Machine.speed))))
        of_slot.(t)
    done;
    L.set_objective m L.Minimize (L.const Q.zero);
    match L.solve m with L.Optimal _ -> true | L.Infeasible | L.Unbounded -> false
  end

(* ---- placement-aware capacity ------------------------------------------- *)

(* The largest arrival rate a stream that picks its databank uniformly at
   random can be served at: for every set S of databanks, the work
   arriving for S (rate * sum of their sizes / D) must fit in the speed of
   the machines hosting any of them (Hall's condition for the fluid
   transport problem, enumerated over all non-empty S). *)
let placement_capacity platform (sizes : float array) =
  let d = Array.length sizes in
  if d > 20 then invalid_arg "Check.placement_capacity: too many databanks";
  let machines = Platform.machines platform in
  let best = ref infinity in
  for mask = 1 to (1 lsl d) - 1 do
    let work = ref 0.0 in
    for k = 0 to d - 1 do
      if mask land (1 lsl k) <> 0 then work := !work +. sizes.(k)
    done;
    let speed =
      Array.fold_left
        (fun acc (m : Machine.t) ->
          let hosts = ref false in
          for k = 0 to d - 1 do
            if mask land (1 lsl k) <> 0 && m.Machine.databanks.(k) then hosts := true
          done;
          if !hosts then acc +. m.Machine.speed else acc)
        0.0 machines
    in
    let rate = speed *. float_of_int d /. !work in
    if rate < !best then best := rate
  done;
  !best
