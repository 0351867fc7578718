(** Minimal dependency-free JSON reader for the observability tooling.

    Parses the JSON that [Hydra_obs] itself emits — metrics snapshots
    ([hydra_c.metrics/1]) — so [obs-report] and the tests can consume
    them without adding an external dependency. It is a strict reader
    for machine-written JSON: numbers become [float], strings support
    the standard escapes (a [\uXXXX] escape decodes to UTF-8), and any
    syntax error raises {!Error} with a byte offset. Accessors are
    total lookups returning [option]; the [get_*] variants raise
    {!Error} with the member name instead. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in file order *)

exception Error of string
(** Raised by {!parse} on malformed input (message includes the byte
    offset) and by the [get_*] accessors on shape mismatches. *)

val parse : string -> t
(** Parse one complete JSON document; trailing whitespace is allowed,
    any other trailing content is an error. *)

val escape : string -> string
(** [escape s] is [s] as the body of a JSON string literal (without
    the quotes): quote, backslash, newline, carriage return and tab
    take their two-character escapes, the other control characters a
    [\u00XX] escape, and every other byte stays as is. A string that
    needs no escape is returned as is, without a copy. It is the one
    escaper of the JSON writers that link [hydra_obs]: snapshots and
    traces, the daemon's protocol, the simulator's schedule trace. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the value bound to [k], if any; [None] on
    non-objects. *)

val get : string -> t -> t
(** Like {!member} but raises {!Error} when missing. *)

val to_int : t -> int option
(** Numeric value as [int] (truncating); [None] on non-numbers and on
    values outside [int] range, [-2^62 <= f < 2^62]. *)

val to_float : t -> float option
val to_string : t -> string option

val get_int : string -> t -> int
val get_obj : string -> t -> (string * t) list
(** [get_obj k j] is the member list of object-valued member [k];
    raises {!Error} if missing or not an object. *)
