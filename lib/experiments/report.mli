(** One-shot Markdown report: regenerates every artifact (tables,
    figures, ablations, validation) at a chosen scale and writes a
    self-contained Markdown document with the outputs in fenced code
    blocks — the automation behind
    [hydra-experiments report --out report.md]. *)

type scale = {
  sc_seed : int;
  sc_trials : int;  (** rover trials (paper: 35) *)
  sc_per_group : int;  (** tasksets per utilization group (paper: 250) *)
  sc_cores : int list;  (** core counts to sweep (paper: [2; 4]) *)
  sc_validate_tasksets : int;  (** 0 disables the validation section *)
}

val generate : ?jobs:int -> ?obs:Hydra_obs.t -> scale -> Buffer.t
(** Runs everything and renders the document. [jobs] (default
    {!Parallel.Pool.default_jobs}[ ()]) is passed to every
    sweep-shaped regeneration; the document is identical for any
    value (doc/PARALLELISM.md). [obs] is likewise forwarded everywhere
    and never changes the document (doc/OBSERVABILITY.md). *)

val write : ?jobs:int -> ?obs:Hydra_obs.t -> scale -> path:string -> unit
(** [generate] to a file. @raise Sys_error on I/O failure. *)
