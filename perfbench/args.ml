(* Command-line arguments, validated strictly: an unknown flag, a missing
   or repeated one, or a malformed value is an error, never a silent
   default. *)

type workload = Paper_panel | Batch_1m | Serve_durable

let workloads =
  [ ("paper-panel", Paper_panel); ("batch-1m", Batch_1m);
    ("serve-durable", Serve_durable) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type run = { workload : workload; seed : int; seconds : float; trace : bool }

type t = Run of run | Self_check

let usage =
  "usage: perfbench --workload (paper-panel|batch-1m|serve-durable) \
   --seed N --seconds S --trace (0|1)\n       perfbench --self-check"

let int_value flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 && string_of_int n = v -> Ok n
  | _ -> Error (Printf.sprintf "%s expects a non-negative integer, got %S" flag v)

let parse (argv : string list) : (t, string) result =
  let ( let* ) = Result.bind in
  match argv with
  | [ "--self-check" ] -> Ok Self_check
  | _ ->
    let rec pairs acc = function
      | [] -> Ok (List.rev acc)
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        if List.mem_assoc flag acc then Error (flag ^ " given twice")
        else pairs ((flag, v) :: acc) rest
      | [ flag ] -> Error (Printf.sprintf "%s has no value" flag)
      | x :: _ -> Error (Printf.sprintf "unexpected argument %S" x)
    in
    let* kv = pairs [] argv in
    let* () =
      match
        List.find_opt
          (fun (f, _) -> not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ]))
          kv
      with
      | Some (f, _) -> Error ("unknown flag " ^ f)
      | None -> Ok ()
    in
    let get flag =
      match List.assoc_opt flag kv with Some v -> Ok v | None -> Error (flag ^ " is required")
    in
    let* w = get "--workload" in
    let* workload =
      match List.assoc_opt w workloads with
      | Some w -> Ok w
      | None -> Error (Printf.sprintf "unknown workload %S" w)
    in
    let* seed = Result.bind (get "--seed") (int_value "--seed") in
    let* seconds = Result.bind (get "--seconds") (int_value "--seconds") in
    let* () =
      if seconds >= 1 && seconds <= 600 then Ok ()
      else Error "--seconds must be between 1 and 600"
    in
    let* trace =
      match get "--trace" with
      | Ok "0" -> Ok false
      | Ok "1" -> Ok true
      | Ok v -> Error (Printf.sprintf "--trace expects 0 or 1, got %S" v)
      | Error e -> Error e
    in
    Ok (Run { workload; seed; seconds = float_of_int seconds; trace })

(* Argument vectors the parser must refuse; the self-check runs them. *)
let malformed =
  [ [];
    [ "--workload"; "paper-panel" ];
    [ "--workload"; "nope"; "--seed"; "1"; "--seconds"; "5"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "-1"; "--seconds"; "5"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "x1"; "--seconds"; "5"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "0x10"; "--seconds"; "5"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "1"; "--seconds"; "0"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "1"; "--seconds"; "1.5"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "1"; "--seconds"; "5"; "--trace"; "2" ];
    [ "--workload"; "batch-1m"; "--seed"; "1"; "--seconds"; "5"; "--trace" ];
    [ "--workload"; "batch-1m"; "--seed"; "1"; "--seed"; "2"; "--seconds"; "5"; "--trace"; "0" ];
    [ "--workload"; "batch-1m"; "--seed"; "1"; "--seconds"; "5"; "--trace"; "0"; "--jobs"; "2" ];
    [ "--self-check"; "--seed"; "1" ] ]
