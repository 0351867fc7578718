(** Kernel-module profile checker — the paper's "in-house custom
    malicious kernel module checker" (Sec. 5.1.2): compares the live
    kernel-module table against an expected profile, detecting rootkit
    modules that were inserted (or legitimate modules that were hidden
    or altered, as a `read()`-hooking rootkit does). *)

type module_info = {
  m_name : string;  (** unique module name *)
  m_size : int;  (** text+data size in bytes *)
  m_addr : int64;  (** load address *)
  m_signature : string;  (** vendor signature / version magic *)
}

type table
(** The live, mutable kernel-module table. *)

val create_table : module_info list -> table
val modules : table -> module_info list
(** Sorted by name. *)

val insert_module : table -> module_info -> unit
(** The rootkit attack of Sec. 5.1.3(ii): loads a malicious module. *)

val hide_module : table -> string -> unit
(** Removes a module from the visible table (rootkit self-hiding).
    @raise Not_found if absent. *)

val patch_module : table -> string -> size:int -> unit
(** Alters a module in place (e.g. a hooked syscall table changes the
    observed size). @raise Not_found if absent. *)

val default_profile : unit -> module_info list
(** A realistic baseline of modules a Raspbian-like kernel loads
    (names from the rover platform: GPIO, camera, WiFi, ...). *)

module Store : Profile_checker.ITEM_STORE with type store = table
(** The view of the table the checker scans: module names as keys, in
    table order (a duplicated name appears once per entry); a
    generation that {!insert_module} and {!hide_module} bump; and as a
    module's fingerprint, {!Hash.words64} of its name and of its
    signature, {!Hash.combine}d with its size and address taken as
    integers (no number is formatted per check). *)

type t
(** The checker: expected profile plus region split. *)

val create : table -> n_regions:int -> t
val n_regions : t -> int
val region_of_key : t -> string -> int
val check_region : t -> int -> Profile_checker.violation list
val check_all : t -> Profile_checker.violation list
val rebaseline : t -> unit

val accept : t -> key:string -> unit
(** Accepts the current state of one module into the expected profile
    (e.g. an administrator-sanctioned module load). *)
