let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun t -> t <> "")

type raw_rt = { rname : string; rwcet : int; rperiod : int; rdeadline : int }
type raw_sec = { sname : string; swcet : int; sbound : int }

let parse content =
  let error lineno msg =
    Error (Printf.sprintf "line %d: %s" lineno msg)
  in
  let int_of lineno what s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> error lineno (Printf.sprintf "%s: not an integer (%S)" what s)
  in
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' content in
  let rec go lineno cores rts secs = function
    | [] -> Ok (cores, List.rev rts, List.rev secs)
    | line :: rest -> (
        match tokens (strip_comment line) with
        | [] -> go (lineno + 1) cores rts secs rest
        | [ "cores"; m ] ->
            let* m = int_of lineno "cores" m in
            if m < 1 then error lineno "cores must be >= 1"
            else go (lineno + 1) (Some m) rts secs rest
        | "rt" :: name :: wcet :: period :: maybe_deadline ->
            let* wcet = int_of lineno "wcet" wcet in
            let* period = int_of lineno "period" period in
            let* deadline =
              match maybe_deadline with
              | [] -> Ok period
              | [ d ] -> int_of lineno "deadline" d
              | _ -> error lineno "too many fields for rt"
            in
            go (lineno + 1) cores
              ({ rname = name; rwcet = wcet; rperiod = period;
                 rdeadline = deadline } :: rts)
              secs rest
        | [ "sec"; name; wcet; bound ] ->
            let* wcet = int_of lineno "wcet" wcet in
            let* bound = int_of lineno "period_max" bound in
            go (lineno + 1) cores rts
              ({ sname = name; swcet = wcet; sbound = bound } :: secs)
              rest
        | word :: _ ->
            error lineno (Printf.sprintf "unrecognized directive %S" word))
  in
  let* cores, rts, secs = go 1 None [] [] lines in
  match cores with
  | None -> Error "missing 'cores <M>' directive"
  | Some n_cores -> (
      try
        let rt =
          List.mapi
            (fun i r ->
              Task.make_rt ~name:r.rname ~deadline:r.rdeadline ~id:i ~prio:0
                ~wcet:r.rwcet ~period:r.rperiod ())
            rts
          |> Task.assign_rate_monotonic
        in
        let sec =
          List.mapi
            (fun i s ->
              Task.make_sec ~name:s.sname ~id:i ~prio:i ~wcet:s.swcet
                ~period_max:s.sbound ())
            secs
        in
        Ok (Task.make_taskset ~n_cores ~rt ~sec)
      with Task.Invalid_task msg -> Error msg)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | content -> parse content
  | exception Sys_error msg -> Error msg

let to_string (ts : Task.taskset) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "cores %d\n" ts.Task.n_cores);
  Buffer.add_string buf "# rt <name> <wcet> <period> [deadline]\n";
  (* emit in id order = original file order *)
  let rt = Array.copy ts.Task.rt in
  Array.sort (fun (a : Task.rt_task) b -> compare a.Task.rt_id b.Task.rt_id) rt;
  Array.iter
    (fun (t : Task.rt_task) ->
      if t.Task.rt_deadline = t.Task.rt_period then
        Buffer.add_string buf
          (Printf.sprintf "rt %s %d %d\n" t.Task.rt_name t.Task.rt_wcet
             t.Task.rt_period)
      else
        Buffer.add_string buf
          (Printf.sprintf "rt %s %d %d %d\n" t.Task.rt_name t.Task.rt_wcet
             t.Task.rt_period t.Task.rt_deadline))
    rt;
  Buffer.add_string buf "# sec <name> <wcet> <period_max>\n";
  let sec = Task.sort_sec_by_priority ts.Task.sec in
  Array.iter
    (fun (s : Task.sec_task) ->
      Buffer.add_string buf
        (Printf.sprintf "sec %s %d %d\n" s.Task.sec_name s.Task.sec_wcet
           s.Task.sec_period_max))
    sec;
  Buffer.contents buf
