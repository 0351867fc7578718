(** The paper's Table 1 — examples of security tasks a designer might
    integrate. The framework is agnostic to the mechanism; this
    catalog records the classes and representative tools, and maps
    each class the paper's rover evaluation runs to the module of this
    repository that implements it. The packet and hardware-counter
    classes are named by the paper but never measured, so they map to
    [None]. *)

type klass =
  | File_system_checking
  | Network_packet_monitoring
  | Hardware_event_monitoring
  | Application_specific_checking

type entry = {
  klass : klass;
  description : string;
  example_tools : string list;
  implemented_by : string option;
      (** module of this repository realizing the class, if any *)
}

val table1 : entry list
(** The rows of Table 1, in paper order. *)

val klass_name : klass -> string
val pp_entry : Format.formatter -> entry -> unit
val pp_table : Format.formatter -> unit -> unit
