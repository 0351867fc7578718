(* Shared helpers for the test executables: deterministic random
   taskset generators (plain QCheck generators, independent of the
   library's own Taskgen so generator bugs cannot mask library bugs)
   and small assertion utilities. *)

module Task = Rtsched.Task

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small random RT taskset on [n_cores]: each task gets a period in
   [5, 100] and a WCET in [1, period], utilization uncontrolled (tests
   that need schedulability filter afterwards). *)
let gen_rt_tasks ~n ~max_period =
  let open QCheck.Gen in
  let gen_task i =
    int_range 5 max_period >>= fun period ->
    int_range 1 (max 1 (period / 4)) >>= fun wcet ->
    return (Task.make_rt ~id:i ~prio:i ~wcet ~period ())
  in
  flatten_l (List.init n gen_task)

let gen_sec_tasks ~n ~max_period =
  let open QCheck.Gen in
  let gen_task i =
    int_range 20 max_period >>= fun period_max ->
    int_range 1 (max 1 (period_max / 5)) >>= fun wcet ->
    return (Task.make_sec ~id:i ~prio:i ~wcet ~period_max ())
  in
  flatten_l (List.init n gen_task)

let gen_taskset ~n_cores ~n_rt ~n_sec =
  let open QCheck.Gen in
  gen_rt_tasks ~n:n_rt ~max_period:100 >>= fun rt ->
  gen_sec_tasks ~n:n_sec ~max_period:400 >>= fun sec ->
  return (Task.make_taskset ~n_cores ~rt:(Task.assign_rate_monotonic rt) ~sec)

let print_taskset ts = Format.asprintf "%a" Task.pp_taskset ts

let arb_taskset ~n_cores ~n_rt ~n_sec =
  QCheck.make ~print:print_taskset (gen_taskset ~n_cores ~n_rt ~n_sec)

(* Round-robin assignment: always valid input shape for analyses that
   need an assignment but not schedulability. *)
let round_robin_assignment ts =
  Array.init (Array.length ts.Task.rt) (fun i -> i mod ts.Task.n_cores)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Simulator vs. reference stepper (test/oracle/naive_sim.ml): the
   differential check behind the skip-ahead engine (doc/SIMULATOR.md).
   Both must produce bit-identical event streams and stats. *)

let capture_run ~n_cores run =
  let log = Sim.Event_log.create ~n_cores in
  let stats = run (Sim.Event_log.hooks log) in
  (stats, Sim.Event_log.events log)

let engines_agree ?overheads ~n_cores ~horizon tasks =
  let fast_stats, fast_events =
    capture_run ~n_cores (fun hooks ->
        Sim.Engine.run ~hooks ~collect_trace:true ?overheads ~n_cores ~horizon
          tasks)
  in
  let naive_stats, naive_events =
    capture_run ~n_cores (fun hooks ->
        Hydra_oracle.Naive_sim.run ~hooks ~collect_trace:true ?overheads
          ~n_cores ~horizon tasks)
  in
  (match Sim.Event_log.first_divergence fast_events naive_events with
  | None -> ()
  | Some (i, f, n) ->
      let pp = function
        | Some e -> Format.asprintf "%a" Sim.Event_log.pp_event e
        | None -> "<end of stream>"
      in
      Alcotest.failf "schedule event %d diverges: engine has %s, oracle has %s"
        i (pp f) (pp n));
  check_bool "stats bit-identical" true
    (Sim.Metrics.equal_stats fast_stats naive_stats)

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser — enough for test_obs to validate the
   Chrome-trace export and for test_lint to validate hydra_lint's
   report, without adding a dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got EOF" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do advance () done;
              Buffer.add_char buf '?';
              go ()
          | Some c -> advance (); Buffer.add_char buf c; go ()
          | None -> fail "bad escape")
      | Some c -> advance (); Buffer.add_char buf c; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected EOF"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Bad_json ("missing member " ^ k)))
  | _ -> raise (Bad_json "not an object")

let as_list = function
  | List l -> l
  | _ -> raise (Bad_json "not an array")

let as_num = function
  | Num f -> f
  | _ -> raise (Bad_json "not a number")

let as_str = function
  | Str s -> s
  | _ -> raise (Bad_json "not a string")
