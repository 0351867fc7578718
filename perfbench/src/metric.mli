(** One reported number, and the two ways a run prints them: a table
    for people (unit and sample count beside every value) and the final
    JSON line for tools. *)

type t = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;  (** measurements behind [value]; 0 = not applicable *)
}

val v : ?samples:int -> string -> string -> float -> t
(** [v name unit value]; [samples] defaults to 1. *)

val na : string -> string -> t
(** A metric the workload does not exercise: value 0, no samples. *)

val print_table : title:string -> t list -> unit
(** Human table on stdout. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> t list -> string
(** [{"correct","attempted","failed","metrics":{name:{"value","unit"}}}]
    on one line. *)
