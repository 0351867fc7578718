(** A synthetic in-memory filesystem — the monitored object of the
    Tripwire-analogue integrity checker. Replaces the rover's image
    data-store (see DESIGN.md, substitutions): only the scanner reads
    it, so an in-memory map with mutation operations exercises the
    same check-and-compare code path as a real disk store. *)

type t
type path = string

val create : unit -> t

val add_file : t -> path -> string -> unit
(** Creates or replaces a file. *)

val write : t -> path -> string -> unit
(** Overwrites an existing file. @raise Not_found if absent. *)

val append : t -> path -> string -> unit
(** Appends to an existing file. @raise Not_found if absent. *)

val read : t -> path -> string
(** @raise Not_found if absent. *)

val remove : t -> path -> unit
(** @raise Not_found if absent. *)

val generation : t -> int
(** A counter that {!add_file} of a new path and {!remove} bump: it
    moves whenever the set of paths changes, and only then. *)

val mem : t -> path -> bool
val file_count : t -> int

val list_paths : t -> path list
(** Sorted lexicographically. *)

val total_bytes : t -> int

val populate_images : t -> count:int -> bytes_per_file:int -> unit
(** Fills the store with [count] synthetic "camera images"
    ([img_0000.raw], ...) of deterministic pseudo-content. The image
    strings of the most recent [(count, bytes_per_file)] shape are
    built once and shared by every store that asks for it; each store
    keeps its own map, so a write to one store never shows in
    another. *)
