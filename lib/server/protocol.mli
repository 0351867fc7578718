(** Wire protocol of the admission-control daemon: the versioned
    [hydra_c.server/1] request/response schema and its length-prefixed
    framing (doc/SERVER.md).

    Every frame is a 4-byte big-endian payload length followed by one
    JSON document. Payload values are integers and strings only —
    never floats — and emission fixes the member order, so encoded
    responses are byte-stable: the committed serve-smoke fixture and
    the cross-[--jobs] identity checks compare frames verbatim. *)

exception Protocol_error of string
(** Malformed frame, malformed JSON, schema-version mismatch, or a
    shape error in a known message. *)

val version : string
(** ["hydra_c.server/1"] — the value of every message's ["v"]
    member. *)

type rt_spec = { r_name : string; r_wcet : int; r_period : int }
(** An RT task as named on the wire (implicit deadline = period;
    priorities are assigned rate-monotonically by the server). *)

type sec_spec = { s_name : string; s_wcet : int; s_period_max : int }
(** A security task as named on the wire (priority = arrival order,
    assigned by the server). *)

type op =
  | Init of { cores : int; rt : rt_spec list; sec : sec_spec list }
      (** create (or replace) the tenant with a full system *)
  | Rt_arrive of rt_spec  (** admit one RT task *)
  | Rt_leave of string  (** remove the RT task with this name *)
  | Sec_arrive of sec_spec  (** add one security task (lowest priority) *)
  | Sec_leave of string  (** remove the security task with this name *)
  | Set_cores of int  (** change the core count (full repartition) *)
  | Reselect  (** force a fresh period selection *)
  | Query  (** return the current selection without editing *)
  | Stats  (** return tenant/cache hygiene counters *)
  | Remove  (** drop the tenant *)
  | Shutdown  (** stop the daemon (handled by {!Daemon}, not the engine) *)
  | Obs_snapshot
      (** return a [hydra_c.metrics/1] snapshot of the daemon's live
          registry (handled by {!Daemon}; ["tenant"] is ignored).
          Leaves no footprint in the registry it reads, so a scrape
          does not perturb the metrics it returns. What moved between
          two scrapes is [Hydra_obs.Report.diff] of the two replies. *)

type request = { q_id : int; q_tenant : string; q_op : op }

val op_name : op -> string
(** The wire name of an op (["init"], ["query"], ["obs_snapshot"]...),
    as carried in the request's ["op"] member. *)

type assignment = { a_name : string; a_period : int; a_resp : int }
(** One row of a period selection: task name, selected period [T_s^*],
    WCRT under the final vector. *)

type stats = {
  st_cores : int;
  st_rt : int;  (** resident RT tasks *)
  st_sec : int;  (** resident security tasks *)
  st_selects : int;  (** materialized period selections *)
  st_cache_entries : int;
  st_cache_capacity : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
  st_cache_refreshes : int;
}
(** The {!Hydra.Analysis.cache_stats} of the tenant's resident system
    plus engine-level counters, flattened to wire integers. *)

type status =
  | Ok
  | Unschedulable
      (** the edit was applied but some security task misses
          [T_s^max] *)
  | Rejected
      (** admission control refused the edit; tenant state unchanged *)
  | Failed  (** wire status ["error"]: bad request, unknown tenant... *)

type body =
  | Periods of assignment list
  | Tenant_stats of stats
  | Metrics of string
      (** verbatim [hydra_c.metrics/1] snapshot for [Obs_snapshot]
          (wire member ["metrics"], a JSON string) *)
  | No_body

type response = {
  p_id : int;
  p_tenant : string;
  p_status : status;
  p_reason : string option;
  p_body : body;
}

val ok : id:int -> tenant:string -> body -> response
val unschedulable : id:int -> tenant:string -> response
val rejected : id:int -> tenant:string -> string -> response
val error : id:int -> tenant:string -> string -> response

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response
(** Codecs for one frame payload. Decoders raise {!Protocol_error};
    [decode_* (encode_* x) = x] is property-tested in
    [test/test_server.ml]. *)

val write_frame : Unix.file_descr -> string -> unit
(** Length-prefix and write one payload (handles short writes). *)

val read_frame : ?stop:(unit -> bool) -> Unix.file_descr -> string option
(** Read one frame; [None] on clean EOF at a frame boundary. A read
    interrupted by a signal (EINTR) is retried unless [stop ()] holds
    (default: never), in which case the frame is abandoned and the
    result is [None] too: the daemon's SIGTERM path, so that a
    connected but idle client cannot hold it open.
    @raise Protocol_error on EOF mid-frame or an implausible length
    (negative or > 16 MiB). *)
