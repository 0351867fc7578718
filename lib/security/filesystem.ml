module Paths = Map.Make (String)

type path = string

(* A persistent map, so [list_paths] comes out sorted by construction
   and a store's bindings are never shared mutably with another's.
   [generation] counts the changes to the set of paths. *)
type t = { mutable files : string Paths.t; mutable generation : int }

let create () = { files = Paths.empty; generation = 0 }

let add_file t path content =
  if not (Paths.mem path t.files) then t.generation <- t.generation + 1;
  t.files <- Paths.add path content t.files

let require t path =
  if not (Paths.mem path t.files) then raise Not_found

let write t path content =
  require t path;
  t.files <- Paths.add path content t.files

let append t path content =
  let old = Paths.find path t.files in
  t.files <- Paths.add path (old ^ content) t.files

let read t path = Paths.find path t.files

let remove t path =
  require t path;
  t.files <- Paths.remove path t.files;
  t.generation <- t.generation + 1

let generation t = t.generation

let mem t path = Paths.mem path t.files
let file_count t = Paths.cardinal t.files

let list_paths t =
  List.rev (Paths.fold (fun p _ acc -> p :: acc) t.files [])

let total_bytes t =
  Paths.fold (fun _ c acc -> acc + String.length c) t.files 0

(* Deterministic filler bytes so experiments are reproducible without
   threading an RNG through the filesystem. *)
let synth_content ~seed ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr ((seed * 131 + i * 7919) mod 256))
  done;
  Bytes.unsafe_to_string b

(* The image set of the most recent (count, size) shape. Every rover
   run asks for the same 64 x 4 KiB images, so they are built once, on
   first use, and shared. Sharing is safe because the strings are
   immutable and [write]/[append] replace a binding rather than the
   bytes under it: each store still starts as a fresh map. Domains
   that race on the first build store equal sets, so either wins. *)
let shared_images : (int * int * (path * string) array) option Atomic.t =
  Atomic.make None

let image_set ~count ~len =
  match Atomic.get shared_images with
  | Some (c, l, images) when c = count && l = len -> images
  | _ ->
      let images =
        Array.init count (fun i ->
            (Printf.sprintf "img_%04d.raw" i, synth_content ~seed:i ~len))
      in
      Atomic.set shared_images (Some (count, len, images));
      images

let populate_images t ~count ~bytes_per_file =
  Array.iter
    (fun (path, content) -> add_file t path content)
    (image_set ~count ~len:bytes_per_file)
