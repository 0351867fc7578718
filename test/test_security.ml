(* Tests for the security substrate: hashing, the synthetic
   filesystem, the generic profile checker and its two instantiations
   (Tripwire analogue, kernel-module checker), intrusion injection,
   the scan-progress detection monitor and the rover case study. *)

module Hash = Security.Hash
module Filesystem = Security.Filesystem
module Profile_checker = Security.Profile_checker
module Integrity_checker = Security.Integrity_checker
module Kmod_checker = Security.Kmod_checker
module Intrusion = Security.Intrusion
module Detection = Security.Detection
module Rover = Security.Rover
module Task = Rtsched.Task

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

(* ------------------------------------------------------------------ *)
(* Hash *)

let test_hash_deterministic () =
  Alcotest.(check int64) "same input same hash" (Hash.fnv1a64 "hello")
    (Hash.fnv1a64 "hello")

let test_hash_discriminates () =
  check_bool "different inputs differ" true
    (Hash.fnv1a64 "hello" <> Hash.fnv1a64 "hellp");
  check_bool "empty vs non-empty" true
    (Hash.fnv1a64 "" <> Hash.fnv1a64 "x")

let test_hash_known_answers () =
  (* The published FNV-1a 64 test vectors: determinism and inequality
     alone would pass a kernel that computed some other function. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check int64) (Printf.sprintf "fnv1a64 %S" input) expected
        (Hash.fnv1a64 input))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L) ]

let test_hash_allocates_only_result () =
  (* Each kernel's state must stay unboxed: hashing a 4 KiB image may
     allocate the boxed result and nothing per byte or word. *)
  let image = String.make 4096 'x' in
  List.iter
    (fun (name, hash) ->
      ignore (Sys.opaque_identity (hash image));
      let calls = 100 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (hash image))
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      check_bool
        (Printf.sprintf "%s: at most 8 minor words per call (got %.1f)" name
           per_call)
        true (per_call <= 8.0))
    [ ("fnv1a64", Hash.fnv1a64); ("words64", Hash.words64) ]

(* The content kernel, [Hash.words64]. Its vectors come from an
   independent transcription of the definition in hash.mli (four lanes
   over 32-byte blocks, lane l seeded with seed + l * 0x9E3779B97F4A7C15
   where the seed is 0x9E3779B97F4A7C15 xor the length, each step xor
   the little-endian word, multiply by 0xBF58476D1CE4E5B9 and xorshift
   right by 31; the words after the last block and the zero-padded
   tail in lane 0; lanes 1-3 folded into lane 0). The lengths cover
   strings shorter than a block, one block alone, with a tail and with
   trailing words, two blocks with and without a tail, and an image. *)
let test_words64_known_answers () =
  let ramp n = String.init n (fun i -> Char.chr (i land 255)) in
  List.iter
    (fun (label, input, expected) ->
      Alcotest.(check int64) ("words64 " ^ label) expected (Hash.words64 input))
    [ ("empty", "", 0x426342d8dd3810e6L);
      ("a", "a", 0x6f78226491f2bd7aL);
      ("foobar", "foobar", 0x185d89e514fe33b8L);
      ("one word", "abcdefgh", 0x26fb57302d849d55L);
      ("word and tail", "abcdefghi", 0x01a084101137cbd7L);
      (* every bit set, bit 63 included *)
      ("0xff x 8", String.make 8 '\xff', 0x0373b1ac50ee7bdeL);
      ("31 bytes", ramp 31, 0x7bed0a93ee30fe2bL);
      ("32 bytes", ramp 32, 0x315757339e271536L);
      ("33 bytes", ramp 33, 0xb00c46ad842430bbL);
      ("40 bytes", ramp 40, 0x7fe9877b0551768bL);
      ("63 bytes", ramp 63, 0xaa3daa8438c9c9f6L);
      ("64 bytes", ramp 64, 0x41100b3c416d78a5L);
      ("65 bytes", ramp 65, 0xcbb69d7d660f92f1L);
      ("4 KiB image", ramp 4096, 0x657948a554af2e66L) ]

(* The four-lane kernel against its reference, which keeps the lanes in
   an array and reads every word with a bounds check. Up to 300 bytes
   covers every block count to nine, with every trailing word and tail
   length. *)
let prop_words64_matches_oracle =
  Test_util.qtest ~count:500 "words64 = Naive_hash"
    QCheck.(string_of_size Gen.(int_range 0 300))
    (fun s -> Int64.equal (Hash.words64 s) (Hydra_oracle.Naive_hash.words64 s))

let test_words64_trailing_zeros () =
  (* the tail is zero-padded, so only the length in the seed tells
     these apart *)
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "%S vs %S" s (s ^ "\000"))
        true
        (Hash.words64 s <> Hash.words64 (s ^ "\000")))
    [ ""; "ab"; "abcdefg"; "abcdefgh"; "abcdefgh\000" ]

(* Between two strings of one length, changing one 8-byte word (the
   zero-padded tail counts as one) or flipping one bit must change the
   result: every step is a bijection of its lane's state, and the final
   fold is a bijection in each lane's state. Each case tries
   every bit of its string, and replaces each of its words with the
   case's random word (the low bit of the word's first byte flipped
   if that would change nothing). *)
let replace_word s w r =
  let lo = w * 8 in
  let len = min 8 (String.length s - lo) in
  let word = Bytes.create 8 in
  Bytes.set_int64_le word 0 r;
  let b = Bytes.of_string s in
  Bytes.blit word 0 b lo len;
  if Bytes.sub_string b lo len = String.sub s lo len then
    Bytes.set b lo (Char.chr (Char.code s.[lo] lxor 1));
  Bytes.to_string b

let flip_bit s k =
  let b = Bytes.of_string s in
  Bytes.set b (k / 8) (Char.chr (Char.code s.[k / 8] lxor (1 lsl (k mod 8))));
  Bytes.to_string b

let prop_words64_sensitive =
  Test_util.qtest ~count:200 "words64: any one word or bit changes it"
    QCheck.(pair (string_of_size Gen.(int_range 0 200)) int64)
    (fun (s, r) ->
      let n = String.length s and h = Hash.words64 s in
      List.for_all
        (fun s' -> Hash.words64 s' <> h)
        (List.init (n * 8) (flip_bit s)
        @ List.init ((n + 7) / 8) (fun w -> replace_word s w r)))

(* Fig. 5's tamper appends bytes, so the length alone catches it. A
   same-length change at production size is what exercises every lane:
   flip one bit (bit w mod 64) in each of the 512 words of a rover
   image in turn. *)
let test_words64_rover_image_flips () =
  let fs = Rover.image_store () in
  let image = Filesystem.read fs (List.hd (Filesystem.list_paths fs)) in
  check_int "image bytes" 4096 (String.length image);
  let h = Hash.words64 image in
  for w = 0 to 511 do
    let b = (w * 64) + (w mod 64) in
    if Hash.words64 (flip_bit image b) = h then
      Alcotest.failf "flipping bit %d of word %d left the digest unchanged"
        (w mod 64) w
  done

(* ------------------------------------------------------------------ *)
(* Filesystem *)

let test_fs_crud () =
  let fs = Filesystem.create () in
  Filesystem.add_file fs "a.txt" "alpha";
  check_bool "mem" true (Filesystem.mem fs "a.txt");
  Alcotest.(check string) "read" "alpha" (Filesystem.read fs "a.txt");
  Filesystem.write fs "a.txt" "beta";
  Alcotest.(check string) "after write" "beta" (Filesystem.read fs "a.txt");
  Filesystem.append fs "a.txt" "!";
  Alcotest.(check string) "after append" "beta!" (Filesystem.read fs "a.txt");
  Filesystem.remove fs "a.txt";
  check_bool "removed" false (Filesystem.mem fs "a.txt")

let test_fs_errors_on_missing () =
  let fs = Filesystem.create () in
  let raises f = try f (); false with Not_found -> true in
  check_bool "write missing" true (raises (fun () ->
      Filesystem.write fs "nope" "x"));
  check_bool "read missing" true (raises (fun () ->
      ignore (Filesystem.read fs "nope")));
  check_bool "remove missing" true (raises (fun () ->
      Filesystem.remove fs "nope"))

let test_fs_populate_images () =
  let fs = Filesystem.create () in
  Filesystem.populate_images fs ~count:16 ~bytes_per_file:128;
  check_int "file count" 16 (Filesystem.file_count fs);
  check_int "bytes" (16 * 128) (Filesystem.total_bytes fs);
  Alcotest.(check (list string)) "sorted first entries"
    [ "img_0000.raw"; "img_0001.raw" ]
    (match Filesystem.list_paths fs with
    | a :: b :: _ -> [ a; b ]
    | l -> l)

let test_fs_images_distinct () =
  let fs = Filesystem.create () in
  Filesystem.populate_images fs ~count:4 ~bytes_per_file:64;
  check_bool "image contents differ" true
    (Filesystem.read fs "img_0000.raw" <> Filesystem.read fs "img_0001.raw")

(* ------------------------------------------------------------------ *)
(* Integrity checker (Profile_checker over the filesystem) *)

let fresh_checker ?(files = 16) ?(regions = 8) () =
  let fs = Filesystem.create () in
  Filesystem.populate_images fs ~count:files ~bytes_per_file:64;
  (fs, Integrity_checker.create fs ~n_regions:regions)

let test_checker_clean_baseline () =
  let _, checker = fresh_checker () in
  Alcotest.(check int) "no violations initially" 0
    (List.length (Integrity_checker.check_all checker))

let test_checker_detects_modification () =
  let fs, checker = fresh_checker () in
  Integrity_checker.tamper_file fs "img_0003.raw";
  let violations = Integrity_checker.check_all checker in
  Alcotest.(check (list string)) "modified reported"
    [ "img_0003.raw" ]
    (List.map Profile_checker.violation_key violations);
  (match violations with
  | [ Profile_checker.Modified _ ] -> ()
  | _ -> Alcotest.fail "expected a Modified violation");
  (* and only its region flags it *)
  let region = Integrity_checker.region_of_key checker "img_0003.raw" in
  check_bool "the right region sees it" true
    (Integrity_checker.check_region checker region <> []);
  for r = 0 to Integrity_checker.n_regions checker - 1 do
    if r <> region then
      check_int
        (Printf.sprintf "region %d clean" r)
        0
        (List.length (Integrity_checker.check_region checker r))
  done

let test_checker_detects_added_and_removed () =
  let fs, checker = fresh_checker () in
  Filesystem.add_file fs "rootkit.bin" "payload";
  Filesystem.remove fs "img_0001.raw";
  let keys =
    List.map Profile_checker.violation_key (Integrity_checker.check_all checker)
  in
  check_bool "added seen" true (List.mem "rootkit.bin" keys);
  check_bool "removed seen" true (List.mem "img_0001.raw" keys)

let test_checker_rebaseline_clears () =
  let fs, checker = fresh_checker () in
  Integrity_checker.tamper_file fs "img_0000.raw";
  check_bool "dirty before" true (Integrity_checker.check_all checker <> []);
  Integrity_checker.rebaseline checker;
  check_int "clean after rebaseline" 0
    (List.length (Integrity_checker.check_all checker))

let test_checker_region_partition () =
  (* Every key belongs to exactly one region in [0, n). *)
  let fs, checker = fresh_checker ~files:32 ~regions:5 () in
  List.iter
    (fun path ->
      let r = Integrity_checker.region_of_key checker path in
      check_bool "region in range" true
        (r >= 0 && r < Integrity_checker.n_regions checker))
    (Filesystem.list_paths fs)

(* The key partition is work the checker does once per key set: a
   store that counts its [keys] and [fingerprint] calls. *)
module Counting_store = struct
  type store = {
    mutable items : (string * int64) list;
    mutable gen : int;
    mutable key_calls : int;
    mutable fp_calls : int;
  }

  let keys s =
    s.key_calls <- s.key_calls + 1;
    List.map fst s.items

  let generation s = s.gen

  let fingerprint s key =
    s.fp_calls <- s.fp_calls + 1;
    List.assoc key s.items
end

module Counting_checker = Profile_checker.Make (Counting_store)

let violation = Alcotest.testable Profile_checker.pp_violation ( = )

let test_partition_per_key_set () =
  let store =
    { Counting_store.items =
        List.init 256 (fun i -> (Printf.sprintf "k%03d" i, Int64.of_int i));
      gen = 0; key_calls = 0; fp_calls = 0 }
  in
  let checker = Counting_checker.create store ~n_regions:64 in
  let check_all_regions () =
    for r = 0 to 63 do
      check_int (Printf.sprintf "region %d clean" r) 0
        (List.length (Counting_checker.check_region checker r))
    done
  in
  check_all_regions ();
  (* one listing for the baseline and all 64 checks (one per check
     before: 65); every check still fingerprints each of its items *)
  check_int "keys listed once" 1 store.key_calls;
  check_int "each item fingerprinted by create and by its check" 512
    store.fp_calls;
  (* a content change needs no new listing *)
  store.items <-
    List.map
      (fun (k, v) -> if k = "k007" then (k, 99L) else (k, v))
      store.items;
  Alcotest.(check (list violation))
    "modified" [ Profile_checker.Modified "k007" ]
    (Counting_checker.check_region checker
       (Counting_checker.region_of_key checker "k007"));
  check_int "still one listing" 1 store.key_calls;
  Counting_checker.accept checker ~key:"k007";
  (* a new key moves the generation and shows at its region's next
     check *)
  store.items <- ("rootkit", 7L) :: store.items;
  store.gen <- store.gen + 1;
  Alcotest.(check (list violation)) "added" [ Profile_checker.Added "rootkit" ]
    (Counting_checker.check_region checker
       (Counting_checker.region_of_key checker "rootkit"));
  check_int "listed again after the key set changed" 2 store.key_calls;
  Counting_checker.accept checker ~key:"rootkit";
  store.items <- List.remove_assoc "k100" store.items;
  store.gen <- store.gen + 1;
  Alcotest.(check (list violation)) "removed" [ Profile_checker.Removed "k100" ]
    (Counting_checker.check_region checker
       (Counting_checker.region_of_key checker "k100"));
  check_int "three listings in all" 3 store.key_calls

(* ------------------------------------------------------------------ *)
(* Region-indexed checker vs. the flat-baseline reference
   (test/oracle/naive_checker.ml), over the very store views the
   production checkers scan. After every operation every region's
   report must be identical. *)

module Naive_fs = Hydra_oracle.Naive_checker.Make (Integrity_checker.Store)
module Naive_kmod = Hydra_oracle.Naive_checker.Make (Kmod_checker.Store)
module Names = Set.Make (String)

let regions_agree ~n_regions check oracle =
  List.for_all (fun r -> check r = oracle r) (List.init n_regions Fun.id)

(* Operations on the image store. [int] arguments pick a name from a
   small pool (so adds collide and accepts may name absent files) or a
   live file by position; [seed] makes distinct contents. *)
type fs_op =
  | Fs_add of int * int
  | Fs_write of int * int
  | Fs_append of int * int
  | Fs_remove of int
  | Fs_tamper of int
  | Fs_accept of int
  | Fs_rebaseline

let fs_name i = Printf.sprintf "f%02d.raw" i

let print_fs_op = function
  | Fs_add (i, seed) -> Printf.sprintf "add %s #%d" (fs_name i) seed
  | Fs_write (i, seed) -> Printf.sprintf "write live[%d] #%d" i seed
  | Fs_append (i, seed) -> Printf.sprintf "append live[%d] #%d" i seed
  | Fs_remove i -> Printf.sprintf "remove live[%d]" i
  | Fs_tamper i -> Printf.sprintf "tamper live[%d]" i
  | Fs_accept i -> Printf.sprintf "accept %s" (fs_name i)
  | Fs_rebaseline -> "rebaseline"

let gen_fs_op =
  let open QCheck.Gen in
  let name = int_range 0 11 and pick = int_range 0 63 and seed = int_range 0 99 in
  frequency
    [ (3, map2 (fun i s -> Fs_add (i, s)) name seed);
      (2, map2 (fun i s -> Fs_write (i, s)) pick seed);
      (2, map2 (fun i s -> Fs_append (i, s)) pick seed);
      (2, map (fun i -> Fs_remove i) pick);
      (2, map (fun i -> Fs_tamper i) pick);
      (2, map (fun i -> Fs_accept i) name);
      (1, return Fs_rebaseline) ]

let arb_fs_script =
  QCheck.make
    ~print:(fun (images, n_regions, ops) ->
      Printf.sprintf "images=%d regions=%d [%s]" images n_regions
        (String.concat "; " (List.map print_fs_op ops)))
    QCheck.Gen.(
      triple (int_range 0 10) (int_range 1 6)
        (list_size (int_range 1 40) gen_fs_op))

let prop_fs_checker_matches_oracle =
  Test_util.qtest ~count:200 "image checker = oracle"
    arb_fs_script (fun (images, n_regions, ops) ->
      let fs = Filesystem.create () in
      Filesystem.populate_images fs ~count:images ~bytes_per_file:16;
      let checker = Integrity_checker.create fs ~n_regions in
      let oracle = Naive_fs.create fs ~n_regions in
      let live =
        ref (Names.of_list (List.init images (Printf.sprintf "img_%04d.raw")))
      in
      let nth_live i =
        match Names.elements !live with
        | [] -> None
        | names -> Some (List.nth names (i mod List.length names))
      in
      let apply = function
        | Fs_add (i, seed) ->
            Filesystem.add_file fs (fs_name i) (Printf.sprintf "add#%d" seed);
            live := Names.add (fs_name i) !live
        | Fs_write (i, seed) ->
            Option.iter
              (fun p -> Filesystem.write fs p (Printf.sprintf "write#%d" seed))
              (nth_live i)
        | Fs_append (i, seed) ->
            Option.iter
              (fun p -> Filesystem.append fs p (Printf.sprintf "+%d" seed))
              (nth_live i)
        | Fs_remove i ->
            Option.iter
              (fun p ->
                Filesystem.remove fs p;
                live := Names.remove p !live)
              (nth_live i)
        | Fs_tamper i ->
            Option.iter (Integrity_checker.tamper_file fs) (nth_live i)
        | Fs_accept i ->
            Integrity_checker.accept checker ~key:(fs_name i);
            Naive_fs.accept oracle ~key:(fs_name i)
        | Fs_rebaseline ->
            Integrity_checker.rebaseline checker;
            Naive_fs.rebaseline oracle
      in
      List.for_all
        (fun op ->
          apply op;
          Filesystem.list_paths fs = Names.elements !live
          && regions_agree ~n_regions
               (Integrity_checker.check_region checker)
               (Naive_fs.check_region oracle))
        ops)

(* Operations on the kernel-module table; names come from a pool that
   overlaps the default profile, so an insert can duplicate a name. *)
type kmod_op =
  | Km_insert of int * int
  | Km_hide of int
  | Km_patch of int * int
  | Km_accept of int
  | Km_rebaseline

let kmod_pool =
  [| "brcmfmac"; "cfg80211"; "fixed"; "v4l2_common"; "rk_hook"; "rk_net" |]

let print_kmod_op = function
  | Km_insert (i, size) -> Printf.sprintf "insert %s/%d" kmod_pool.(i) size
  | Km_hide i -> Printf.sprintf "hide %s" kmod_pool.(i)
  | Km_patch (i, size) -> Printf.sprintf "patch %s/%d" kmod_pool.(i) size
  | Km_accept i -> Printf.sprintf "accept %s" kmod_pool.(i)
  | Km_rebaseline -> "rebaseline"

let gen_kmod_op =
  let open QCheck.Gen in
  let name = int_range 0 (Array.length kmod_pool - 1)
  and size = int_range 1 9 in
  frequency
    [ (3, map2 (fun i s -> Km_insert (i, s)) name size);
      (2, map (fun i -> Km_hide i) name);
      (2, map2 (fun i s -> Km_patch (i, s)) name size);
      (2, map (fun i -> Km_accept i) name);
      (1, return Km_rebaseline) ]

let arb_kmod_script =
  QCheck.make
    ~print:(fun (n_regions, ops) ->
      Printf.sprintf "regions=%d [%s]" n_regions
        (String.concat "; " (List.map print_kmod_op ops)))
    QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 1 30) gen_kmod_op))

let prop_kmod_checker_matches_oracle =
  Test_util.qtest ~count:200 "kmod checker = oracle"
    arb_kmod_script (fun (n_regions, ops) ->
      let table = Kmod_checker.create_table (Kmod_checker.default_profile ()) in
      let checker = Kmod_checker.create table ~n_regions in
      let oracle = Naive_kmod.create table ~n_regions in
      let present name =
        List.exists
          (fun m -> m.Kmod_checker.m_name = name)
          (Kmod_checker.modules table)
      in
      let apply = function
        | Km_insert (i, size) ->
            Kmod_checker.insert_module table
              { Kmod_checker.m_name = kmod_pool.(i); m_size = size * 1000;
                m_addr = Int64.of_int (0x7f100000 + size);
                m_signature = "unsigned" }
        | Km_hide i ->
            if present kmod_pool.(i) then
              Kmod_checker.hide_module table kmod_pool.(i)
        | Km_patch (i, size) ->
            if present kmod_pool.(i) then
              Kmod_checker.patch_module table kmod_pool.(i) ~size
        | Km_accept i ->
            Kmod_checker.accept checker ~key:kmod_pool.(i);
            Naive_kmod.accept oracle ~key:kmod_pool.(i)
        | Km_rebaseline ->
            Kmod_checker.rebaseline checker;
            Naive_kmod.rebaseline oracle
      in
      List.for_all
        (fun op ->
          apply op;
          regions_agree ~n_regions
            (Kmod_checker.check_region checker)
            (Naive_kmod.check_region oracle))
        ops)

(* ------------------------------------------------------------------ *)
(* Kernel-module checker *)

let test_kmod_clean_profile () =
  let table = Kmod_checker.create_table (Kmod_checker.default_profile ()) in
  let checker = Kmod_checker.create table ~n_regions:4 in
  check_int "clean" 0 (List.length (Kmod_checker.check_all checker))

let test_kmod_detects_insertion () =
  let table = Kmod_checker.create_table (Kmod_checker.default_profile ()) in
  let checker = Kmod_checker.create table ~n_regions:4 in
  Kmod_checker.insert_module table
    { Kmod_checker.m_name = "rk_hook"; m_size = 666; m_addr = 0xdeadL;
      m_signature = "unsigned" };
  (match Kmod_checker.check_all checker with
  | [ Profile_checker.Added "rk_hook" ] -> ()
  | other ->
      Alcotest.failf "expected Added rk_hook, got %d violations"
        (List.length other))

let test_kmod_detects_hiding () =
  let table = Kmod_checker.create_table (Kmod_checker.default_profile ()) in
  let checker = Kmod_checker.create table ~n_regions:4 in
  Kmod_checker.hide_module table "brcmfmac";
  (match Kmod_checker.check_all checker with
  | [ Profile_checker.Removed "brcmfmac" ] -> ()
  | _ -> Alcotest.fail "expected Removed brcmfmac")

let test_kmod_detects_patching () =
  let table = Kmod_checker.create_table (Kmod_checker.default_profile ()) in
  let checker = Kmod_checker.create table ~n_regions:4 in
  Kmod_checker.patch_module table "cfg80211" ~size:999999;
  (match Kmod_checker.check_all checker with
  | [ Profile_checker.Modified "cfg80211" ] -> ()
  | _ -> Alcotest.fail "expected Modified cfg80211")

let test_kmod_hide_missing_raises () =
  let table = Kmod_checker.create_table [] in
  let raised =
    try Kmod_checker.hide_module table "ghost"; false
    with Not_found -> true
  in
  check_bool "hide missing raises" true raised

(* ------------------------------------------------------------------ *)
(* Intrusion injector *)

let test_intrusion_applies_in_time_order () =
  let log = ref [] in
  let inj = Intrusion.create () in
  Intrusion.schedule inj ~at:30 ~label:"c" (fun () -> log := "c" :: !log);
  Intrusion.schedule inj ~at:10 ~label:"a" (fun () -> log := "a" :: !log);
  Intrusion.schedule inj ~at:20 ~label:"b" (fun () -> log := "b" :: !log);
  Intrusion.apply_until inj 25;
  Alcotest.(check (list string)) "a then b applied" [ "a"; "b" ]
    (List.rev !log);
  Alcotest.(check (list (pair int string))) "c pending" [ (30, "c") ]
    (Intrusion.pending inj);
  Intrusion.apply_until inj 25;
  Alcotest.(check (list string)) "idempotent" [ "a"; "b" ] (List.rev !log);
  Intrusion.apply_until inj 30;
  Alcotest.(check (list string)) "c applied at 30" [ "a"; "b"; "c" ]
    (List.rev !log);
  check_int "applied log" 3 (List.length (Intrusion.applied inj))

(* ------------------------------------------------------------------ *)
(* Detection monitor *)

(* Drive the monitor by hand with synthetic jobs/segments. *)
let synthetic_job seq =
  let st =
    { Sim.Engine.st_id = 7; st_name = "scanner"; st_wcet = 10; st_period = 100;
      st_deadline = 100; st_prio = 0; st_core = None; st_offset = 0 }
  in
  { Sim.Engine.j_task = st; j_seq = seq; j_release = 0; j_abs_deadline = 100;
    j_remaining = 10; j_last_core = -1; j_started_at = -1 }

let test_detection_regions_complete_in_order () =
  let completed = ref [] in
  let target =
    { Detection.n_regions = 5;
      check_region =
        (fun ~region ~started:_ ~finished ->
          completed := (region, finished) :: !completed;
          false) }
  in
  let monitor = Detection.create ~sim_id:7 ~wcet:10 ~target in
  let job = synthetic_job 0 in
  (* one uninterrupted segment covering the whole job at t in [100,110) *)
  Detection.on_execute monitor job ~core:0 ~start:100 ~stop:110;
  Alcotest.(check (list (pair int int))) "5 regions at exact instants"
    [ (0, 102); (1, 104); (2, 106); (3, 108); (4, 110) ]
    (List.rev !completed);
  check_int "one full pass" 1 (Detection.full_passes monitor);
  check_int "regions checked" 5 (Detection.regions_checked monitor)

let test_detection_split_segments () =
  let completed = ref [] in
  let target =
    { Detection.n_regions = 2;
      check_region =
        (fun ~region ~started ~finished ->
          completed := (region, started, finished) :: !completed;
          false) }
  in
  let monitor = Detection.create ~sim_id:7 ~wcet:10 ~target in
  let job = synthetic_job 0 in
  (* job preempted: runs [0,4), [50,56). Region 0 completes at
     progress 5 -> wall 51; region 1 at progress 10 -> wall 56. *)
  Detection.on_execute monitor job ~core:0 ~start:0 ~stop:4;
  Detection.on_execute monitor job ~core:1 ~start:50 ~stop:56;
  Alcotest.(check (list (triple int int int))) "split segments tracked"
    [ (0, 0, 51); (1, 51, 56) ]
    (List.rev !completed)

let test_detection_ignores_other_tasks () =
  let calls = ref 0 in
  let target =
    { Detection.n_regions = 1;
      check_region = (fun ~region:_ ~started:_ ~finished:_ -> incr calls; true)
    }
  in
  let monitor = Detection.create ~sim_id:99 ~wcet:10 ~target in
  Detection.on_execute monitor (synthetic_job 0) ~core:0 ~start:0 ~stop:10;
  check_int "other task ignored" 0 !calls

let test_detection_first_hit_recorded () =
  let hits = ref 0 in
  let target =
    { Detection.n_regions = 2;
      check_region =
        (fun ~region ~started:_ ~finished:_ ->
          incr hits;
          region = 1) }
  in
  let monitor = Detection.create ~sim_id:7 ~wcet:10 ~target in
  Detection.on_execute monitor (synthetic_job 0) ~core:0 ~start:0 ~stop:10;
  Alcotest.(check (option int)) "detection at region 1 completion" (Some 10)
    (Detection.detection_time monitor);
  (* a later pass must not overwrite the first detection *)
  Detection.on_execute monitor (synthetic_job 1) ~core:0 ~start:100 ~stop:110;
  Alcotest.(check (option int)) "first detection kept" (Some 10)
    (Detection.detection_time monitor)

let test_detection_new_job_restarts_pass () =
  let regions_seen = ref [] in
  let target =
    { Detection.n_regions = 2;
      check_region =
        (fun ~region ~started:_ ~finished:_ ->
          regions_seen := region :: !regions_seen;
          false) }
  in
  let monitor = Detection.create ~sim_id:7 ~wcet:10 ~target in
  (* job 0 aborted after region 0; job 1 starts from region 0 again *)
  Detection.on_execute monitor (synthetic_job 0) ~core:0 ~start:0 ~stop:5;
  Detection.on_execute monitor (synthetic_job 1) ~core:0 ~start:20 ~stop:30;
  Alcotest.(check (list int)) "restart from region 0" [ 0; 0; 1 ]
    (List.rev !regions_seen)

let test_checker_target_race_semantics () =
  (* A mutation landing during the inspection window is only seen on
     the next pass (conservative mid-scan race). *)
  let fs = Filesystem.create () in
  Filesystem.populate_images fs ~count:4 ~bytes_per_file:32;
  let checker = Integrity_checker.create fs ~n_regions:1 in
  let inj = Intrusion.create () in
  Intrusion.schedule inj ~at:5 ~label:"tamper" (fun () ->
      Integrity_checker.tamper_file fs "img_0000.raw");
  let target =
    Detection.checker_target ~n_regions:1 ~injector:inj
      ~check:(Integrity_checker.check_region checker)
  in
  (* inspection started at 0, finished at 10: attack at 5 not applied *)
  check_bool "mid-scan attack missed" false
    (target.Detection.check_region ~region:0 ~started:0 ~finished:10);
  (* next pass starts at 20: attack now in effect *)
  check_bool "next pass detects" true
    (target.Detection.check_region ~region:0 ~started:20 ~finished:30)

(* Random segmentation property: however a job's execution is sliced
   by preemptions, one full job = exactly one full pass, each region
   inspected once, at non-decreasing wall instants. *)
let prop_detection_full_pass_under_any_preemption =
  let arb =
    QCheck.(
      triple (int_range 1 60) (int_range 1 12)
        (list_of_size Gen.(int_range 0 6) (int_range 1 10)))
  in
  Test_util.qtest ~count:200 "any segmentation yields one exact pass" arb
    (fun (wcet, n_regions, cuts) ->
      let inspections = ref [] in
      let target =
        { Detection.n_regions;
          check_region =
            (fun ~region ~started ~finished ->
              inspections := (region, started, finished) :: !inspections;
              false) }
      in
      let monitor = Detection.create ~sim_id:7 ~wcet ~target in
      let job = synthetic_job 0 in
      (* slice [0, wcet) into segments at the random cut offsets, with
         a gap of 100 wall ticks between consecutive segments *)
      let rec feed start progress = function
        | [] ->
            if progress < wcet then
              Detection.on_execute monitor job ~core:0 ~start
                ~stop:(start + (wcet - progress))
        | cut :: rest ->
            let len = min cut (wcet - progress) in
            if len > 0 then begin
              Detection.on_execute monitor job ~core:0 ~start
                ~stop:(start + len);
              feed (start + len + 100) (progress + len) rest
            end
            else feed start progress rest
      in
      feed 0 0 cuts;
      let seen = List.rev !inspections in
      Detection.full_passes monitor = 1
      && Detection.regions_checked monitor = n_regions
      && List.map (fun (r, _, _) -> r) seen = List.init n_regions (fun i -> i)
      && List.for_all (fun (_, s, f) -> s <= f) seen
      &&
      let rec monotone = function
        | (_, _, f1) :: ((_, s2, _) :: _ as rest) ->
            f1 <= s2 && monotone rest
        | _ -> true
      in
      monotone seen)

(* ------------------------------------------------------------------ *)
(* Rover case study *)

let test_rover_parameters () =
  let ts = Rover.taskset () in
  check_int "cores" 2 ts.Task.n_cores;
  check_int "rt tasks" 2 (Array.length ts.Task.rt);
  check_int "sec tasks" 2 (Array.length ts.Task.sec);
  Alcotest.(check (float 1e-4)) "RT utilization (paper: 0.7040)" 0.7040
    (Task.total_rt_utilization ts);
  Alcotest.(check (float 1e-4)) "total min utilization (paper: 1.2605)" 1.2605
    (Task.total_min_utilization ts)

let test_rover_table2_has_all_rows () =
  check_int "ten facts" 10 (List.length Rover.table2)

let test_rover_stores () =
  let fs = Rover.image_store () in
  check_int "image count" Rover.image_regions (Filesystem.file_count fs);
  let table = Rover.module_table () in
  check_int "profile preloaded"
    (List.length (Kmod_checker.default_profile ()))
    (List.length (Kmod_checker.modules table))

let test_rover_image_stores_isolated () =
  (* Stores share the image bytes but not the map: mutating one store
     must leave every other store, old or new, reading the originals. *)
  let first = Rover.image_store () in
  let second = Rover.image_store () in
  let original = Filesystem.read second "img_0007.raw" in
  let second_checker =
    Integrity_checker.create second ~n_regions:Rover.image_regions
  in
  Integrity_checker.tamper_file first "img_0007.raw";
  Filesystem.append first "img_0008.raw" "<appended>";
  Filesystem.remove first "img_0009.raw";
  let third = Rover.image_store () in
  List.iter
    (fun (label, fs) ->
      check_int (label ^ ": image count") Rover.image_regions
        (Filesystem.file_count fs);
      Alcotest.(check string) (label ^ ": original bytes") original
        (Filesystem.read fs "img_0007.raw");
      check_int (label ^ ": total bytes") (Rover.image_regions * 4096)
        (Filesystem.total_bytes fs))
    [ ("second", second); ("third", third) ];
  check_int "second store checks clean" 0
    (List.length (Integrity_checker.check_all second_checker));
  check_int "third store checks clean" 0
    (List.length
       (Integrity_checker.check_all
          (Integrity_checker.create third ~n_regions:Rover.image_regions)));
  (* the share is keyed on the whole shape, count and size *)
  List.iter
    (fun (images, bytes_per_image) ->
      let fs = Rover.image_store ~images ~bytes_per_image () in
      let shape = Printf.sprintf "%d x %d B" images bytes_per_image in
      check_int (shape ^ ": count") images (Filesystem.file_count fs);
      check_int (shape ^ ": bytes") (images * bytes_per_image)
        (Filesystem.total_bytes fs))
    [ (Rover.image_regions, 64); (8, 64); (8, 4096) ]

let test_catalog_table1 () =
  check_int "four classes" 4 (List.length Security.Catalog.table1);
  (* Only the classes the paper's rover evaluation runs map to a
     module; the packet and hardware-counter classes are named only. *)
  Alcotest.(check (list string)) "implemented classes"
    [ "Security.Integrity_checker"; "Security.Kmod_checker" ]
    (List.filter_map
       (fun e -> e.Security.Catalog.implemented_by)
       Security.Catalog.table1)

let () =
  Alcotest.run "security"
    [ ( "hash",
        [ Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "discriminates" `Quick test_hash_discriminates;
          Alcotest.test_case "known answers" `Quick test_hash_known_answers;
          Alcotest.test_case "allocates only the result" `Quick
            test_hash_allocates_only_result;
          Alcotest.test_case "words64 known answers" `Quick
            test_words64_known_answers;
          Alcotest.test_case "words64 trailing zero bytes" `Quick
            test_words64_trailing_zeros;
          prop_words64_matches_oracle;
          prop_words64_sensitive;
          Alcotest.test_case "words64 one bit per rover image word" `Quick
            test_words64_rover_image_flips ] );
      ( "filesystem",
        [ Alcotest.test_case "crud" `Quick test_fs_crud;
          Alcotest.test_case "errors on missing" `Quick
            test_fs_errors_on_missing;
          Alcotest.test_case "populate images" `Quick test_fs_populate_images;
          Alcotest.test_case "images distinct" `Quick test_fs_images_distinct ]
      );
      ( "integrity_checker",
        [ Alcotest.test_case "clean baseline" `Quick
            test_checker_clean_baseline;
          Alcotest.test_case "detects modification" `Quick
            test_checker_detects_modification;
          Alcotest.test_case "detects add/remove" `Quick
            test_checker_detects_added_and_removed;
          Alcotest.test_case "rebaseline clears" `Quick
            test_checker_rebaseline_clears;
          Alcotest.test_case "key partition per key set" `Quick
            test_partition_per_key_set;
          Alcotest.test_case "region partition" `Quick
            test_checker_region_partition ] );
      ( "kmod_checker",
        [ Alcotest.test_case "clean profile" `Quick test_kmod_clean_profile;
          Alcotest.test_case "detects insertion" `Quick
            test_kmod_detects_insertion;
          Alcotest.test_case "detects hiding" `Quick test_kmod_detects_hiding;
          Alcotest.test_case "detects patching" `Quick
            test_kmod_detects_patching;
          Alcotest.test_case "hide missing raises" `Quick
            test_kmod_hide_missing_raises ] );
      ( "checker_oracle",
        [ prop_fs_checker_matches_oracle; prop_kmod_checker_matches_oracle ] );
      ( "intrusion",
        [ Alcotest.test_case "time-ordered application" `Quick
            test_intrusion_applies_in_time_order ] );
      ( "detection",
        [ Alcotest.test_case "regions complete in order" `Quick
            test_detection_regions_complete_in_order;
          Alcotest.test_case "split segments" `Quick
            test_detection_split_segments;
          Alcotest.test_case "ignores other tasks" `Quick
            test_detection_ignores_other_tasks;
          Alcotest.test_case "first hit recorded" `Quick
            test_detection_first_hit_recorded;
          Alcotest.test_case "new job restarts pass" `Quick
            test_detection_new_job_restarts_pass;
          Alcotest.test_case "mid-scan race semantics" `Quick
            test_checker_target_race_semantics;
          prop_detection_full_pass_under_any_preemption ] );
      ( "rover",
        [ Alcotest.test_case "paper parameters" `Quick test_rover_parameters;
          Alcotest.test_case "table 2 rows" `Quick
            test_rover_table2_has_all_rows;
          Alcotest.test_case "stores" `Quick test_rover_stores;
          Alcotest.test_case "image stores isolated" `Quick
            test_rover_image_stores_isolated;
          Alcotest.test_case "table 1 catalog" `Quick test_catalog_table1 ] ) ]
