exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let version = "hydra_c.server/1"
let max_frame = 16 * 1024 * 1024

type rt_spec = { r_name : string; r_wcet : int; r_period : int }
type sec_spec = { s_name : string; s_wcet : int; s_period_max : int }

type op =
  | Init of { cores : int; rt : rt_spec list; sec : sec_spec list }
  | Rt_arrive of rt_spec
  | Rt_leave of string
  | Sec_arrive of sec_spec
  | Sec_leave of string
  | Set_cores of int
  | Reselect
  | Query
  | Stats
  | Remove
  | Shutdown
  | Obs_snapshot

type request = { q_id : int; q_tenant : string; q_op : op }

type assignment = { a_name : string; a_period : int; a_resp : int }

type stats = {
  st_cores : int;
  st_rt : int;
  st_sec : int;
  st_selects : int;
  st_cache_entries : int;
  st_cache_capacity : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
  st_cache_refreshes : int;
}

type status = Ok | Unschedulable | Rejected | Failed

type body =
  | Periods of assignment list
  | Tenant_stats of stats
  | Metrics of string  (* one hydra_c.metrics/1 snapshot, verbatim *)
  | No_body

type response = {
  p_id : int;
  p_tenant : string;
  p_status : status;
  p_reason : string option;
  p_body : body;
}

let ok ~id ~tenant body =
  { p_id = id; p_tenant = tenant; p_status = Ok; p_reason = None;
    p_body = body }

let unschedulable ~id ~tenant =
  { p_id = id; p_tenant = tenant; p_status = Unschedulable; p_reason = None;
    p_body = No_body }

let rejected ~id ~tenant reason =
  { p_id = id; p_tenant = tenant; p_status = Rejected; p_reason = Some reason;
    p_body = No_body }

let error ~id ~tenant reason =
  { p_id = id; p_tenant = tenant; p_status = Failed; p_reason = Some reason;
    p_body = No_body }

(* ------------------------------------------------------------------ *)
(* JSON emission. Member order is fixed here, and every payload value
   is an integer or a string, so encoded frames are byte-stable — the
   committed smoke fixture and the cross-[--jobs] identity checks rely
   on this. *)

let buf_escaped b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Hydra_obs.Json.escape s);
  Buffer.add_char b '"'

let buf_kv_str b k v =
  buf_escaped b k;
  Buffer.add_char b ':';
  buf_escaped b v

let buf_kv_int b k v =
  buf_escaped b k;
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int v)

let buf_rt_spec b (t : rt_spec) =
  Buffer.add_char b '{';
  buf_kv_str b "name" t.r_name;
  Buffer.add_char b ',';
  buf_kv_int b "wcet" t.r_wcet;
  Buffer.add_char b ',';
  buf_kv_int b "period" t.r_period;
  Buffer.add_char b '}'

let buf_sec_spec b (t : sec_spec) =
  Buffer.add_char b '{';
  buf_kv_str b "name" t.s_name;
  Buffer.add_char b ',';
  buf_kv_int b "wcet" t.s_wcet;
  Buffer.add_char b ',';
  buf_kv_int b "period_max" t.s_period_max;
  Buffer.add_char b '}'

let buf_list b f xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    xs;
  Buffer.add_char b ']'

let op_name = function
  | Init _ -> "init"
  | Rt_arrive _ -> "rt_arrive"
  | Rt_leave _ -> "rt_leave"
  | Sec_arrive _ -> "sec_arrive"
  | Sec_leave _ -> "sec_leave"
  | Set_cores _ -> "set_cores"
  | Reselect -> "reselect"
  | Query -> "query"
  | Stats -> "stats"
  | Remove -> "remove"
  | Shutdown -> "shutdown"
  | Obs_snapshot -> "obs_snapshot"

let encode_request (q : request) =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  buf_kv_str b "v" version;
  Buffer.add_char b ',';
  buf_kv_int b "id" q.q_id;
  Buffer.add_char b ',';
  buf_kv_str b "tenant" q.q_tenant;
  Buffer.add_char b ',';
  buf_kv_str b "op" (op_name q.q_op);
  (match q.q_op with
  | Init { cores; rt; sec } ->
      Buffer.add_char b ',';
      buf_kv_int b "cores" cores;
      Buffer.add_string b ",\"rt\":";
      buf_list b buf_rt_spec rt;
      Buffer.add_string b ",\"sec\":";
      buf_list b buf_sec_spec sec
  | Rt_arrive t ->
      Buffer.add_string b ",\"task\":";
      buf_rt_spec b t
  | Sec_arrive t ->
      Buffer.add_string b ",\"task\":";
      buf_sec_spec b t
  | Rt_leave name | Sec_leave name ->
      Buffer.add_char b ',';
      buf_kv_str b "name" name
  | Set_cores cores ->
      Buffer.add_char b ',';
      buf_kv_int b "cores" cores
  | Reselect | Query | Stats | Remove | Shutdown | Obs_snapshot -> ());
  Buffer.add_char b '}';
  Buffer.contents b

let status_name = function
  | Ok -> "ok"
  | Unschedulable -> "unschedulable"
  | Rejected -> "rejected"
  | Failed -> "error"

let encode_response (p : response) =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  buf_kv_str b "v" version;
  Buffer.add_char b ',';
  buf_kv_int b "id" p.p_id;
  Buffer.add_char b ',';
  buf_kv_str b "tenant" p.p_tenant;
  Buffer.add_char b ',';
  buf_kv_str b "status" (status_name p.p_status);
  (match p.p_reason with
  | None -> ()
  | Some r ->
      Buffer.add_char b ',';
      buf_kv_str b "reason" r);
  (match p.p_body with
  | No_body -> ()
  | Periods assignments ->
      Buffer.add_string b ",\"assignments\":";
      buf_list b
        (fun b a ->
          Buffer.add_char b '{';
          buf_kv_str b "name" a.a_name;
          Buffer.add_char b ',';
          buf_kv_int b "period" a.a_period;
          Buffer.add_char b ',';
          buf_kv_int b "resp" a.a_resp;
          Buffer.add_char b '}')
        assignments
  | Tenant_stats s ->
      Buffer.add_string b ",\"stats\":{";
      buf_kv_int b "cores" s.st_cores;
      Buffer.add_char b ',';
      buf_kv_int b "rt" s.st_rt;
      Buffer.add_char b ',';
      buf_kv_int b "sec" s.st_sec;
      Buffer.add_char b ',';
      buf_kv_int b "selects" s.st_selects;
      Buffer.add_char b ',';
      buf_kv_int b "cache_entries" s.st_cache_entries;
      Buffer.add_char b ',';
      buf_kv_int b "cache_capacity" s.st_cache_capacity;
      Buffer.add_char b ',';
      buf_kv_int b "cache_hits" s.st_cache_hits;
      Buffer.add_char b ',';
      buf_kv_int b "cache_misses" s.st_cache_misses;
      Buffer.add_char b ',';
      buf_kv_int b "cache_evictions" s.st_cache_evictions;
      Buffer.add_char b ',';
      buf_kv_int b "cache_refreshes" s.st_cache_refreshes;
      Buffer.add_char b '}'
  | Metrics payload ->
      Buffer.add_char b ',';
      buf_kv_str b "metrics" payload);
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON decoding, on top of the observability layer's strict reader. *)

module J = Hydra_obs.Json

let get_int j k =
  match J.member k j with
  | Some v -> (
      match J.to_int v with
      | Some n -> n
      | None -> fail "member %S is not an integer" k)
  | None -> fail "missing member %S" k

let get_str j k =
  match J.member k j with
  | Some v -> (
      match J.to_string v with
      | Some s -> s
      | None -> fail "member %S is not a string" k)
  | None -> fail "missing member %S" k

let get_list j k =
  match J.member k j with
  | Some (J.Arr xs) -> xs
  | Some _ -> fail "member %S is not an array" k
  | None -> fail "missing member %S" k

let rt_spec_of_json j =
  { r_name = get_str j "name"; r_wcet = get_int j "wcet";
    r_period = get_int j "period" }

let sec_spec_of_json j =
  { s_name = get_str j "name"; s_wcet = get_int j "wcet";
    s_period_max = get_int j "period_max" }

let get_task j = match J.member "task" j with
  | Some t -> t
  | None -> fail "missing member %S" "task"

let parse_json s =
  match J.parse s with
  | j -> j
  | exception J.Error e -> fail "malformed JSON: %s" e

let check_version j =
  let v = get_str j "v" in
  if v <> version then fail "unsupported schema %S (want %S)" v version

let decode_request s =
  let j = parse_json s in
  check_version j;
  let q_id = get_int j "id" in
  let q_tenant = get_str j "tenant" in
  let q_op =
    match get_str j "op" with
    | "init" ->
        Init
          { cores = get_int j "cores";
            rt = List.map rt_spec_of_json (get_list j "rt");
            sec = List.map sec_spec_of_json (get_list j "sec") }
    | "rt_arrive" -> Rt_arrive (rt_spec_of_json (get_task j))
    | "rt_leave" -> Rt_leave (get_str j "name")
    | "sec_arrive" -> Sec_arrive (sec_spec_of_json (get_task j))
    | "sec_leave" -> Sec_leave (get_str j "name")
    | "set_cores" -> Set_cores (get_int j "cores")
    | "reselect" -> Reselect
    | "query" -> Query
    | "stats" -> Stats
    | "remove" -> Remove
    | "shutdown" -> Shutdown
    | "obs_snapshot" -> Obs_snapshot
    | op -> fail "unknown op %S" op
  in
  { q_id; q_tenant; q_op }

let decode_response s =
  let j = parse_json s in
  check_version j;
  let p_id = get_int j "id" in
  let p_tenant = get_str j "tenant" in
  let p_status =
    match get_str j "status" with
    | "ok" -> Ok
    | "unschedulable" -> Unschedulable
    | "rejected" -> Rejected
    | "error" -> Failed
    | s -> fail "unknown status %S" s
  in
  let p_reason =
    match J.member "reason" j with
    | Some v -> J.to_string v
    | None -> None
  in
  let p_body =
    match J.member "assignments" j with
    | Some (J.Arr xs) ->
        Periods
          (List.map
             (fun a ->
               { a_name = get_str a "name"; a_period = get_int a "period";
                 a_resp = get_int a "resp" })
             xs)
    | Some _ -> fail "member %S is not an array" "assignments"
    | None -> (
        match J.member "stats" j with
        | Some s ->
            Tenant_stats
              { st_cores = get_int s "cores"; st_rt = get_int s "rt";
                st_sec = get_int s "sec"; st_selects = get_int s "selects";
                st_cache_entries = get_int s "cache_entries";
                st_cache_capacity = get_int s "cache_capacity";
                st_cache_hits = get_int s "cache_hits";
                st_cache_misses = get_int s "cache_misses";
                st_cache_evictions = get_int s "cache_evictions";
                st_cache_refreshes = get_int s "cache_refreshes" }
        | None -> (
            match J.member "metrics" j with
            | Some v -> (
                match J.to_string v with
                | Some s -> Metrics s
                | None -> fail "member %S is not a string" "metrics")
            | None -> No_body))
  in
  { p_id; p_tenant; p_status; p_reason; p_body }

(* ------------------------------------------------------------------ *)
(* Framing: 4-byte big-endian length prefix, then that many bytes of
   JSON. *)

(* EINTR is retried here so a signal (the daemon's SIGUSR1 flight-dump
   trigger) never tears a frame: the offset tracks exactly how much was
   transferred, so resuming is always safe. *)
let rec write_all fd bytes off len =
  if len > 0 then begin
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all fd bytes off len
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then fail "frame too large (%d bytes)" n;
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

(* Reads exactly [len] bytes; [None] on EOF at offset 0 when
   [eof_ok], or on a read interrupted by a signal once [stop ()]
   holds. *)
let read_exact ~stop fd len ~eof_ok =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Some b
    else
      match Unix.read fd b off (len - off) with
      | 0 ->
          if off = 0 && eof_ok then None
          else fail "unexpected EOF inside a frame (%d/%d bytes)" off len
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          if stop () then None else go off
  in
  go 0

let read_frame ?(stop = fun () -> false) fd =
  match read_exact ~stop fd 4 ~eof_ok:true with
  | None -> None
  | Some hdr ->
      let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if n < 0 || n > max_frame then fail "bad frame length %d" n;
      if n = 0 then Some ""
      else
        Option.map Bytes.unsafe_to_string
          (read_exact ~stop fd n ~eof_ok:false)
