module Store = struct
  type store = Filesystem.t

  let keys = Filesystem.list_paths
  let generation = Filesystem.generation
  let fingerprint store key = Hash.words64 (Filesystem.read store key)
end

module Checker = Profile_checker.Make (Store)

type t = Checker.t

let create = Checker.create
let n_regions = Checker.n_regions
let region_of_key = Checker.region_of_key
let check_region = Checker.check_region
let check_all = Checker.check_all
let rebaseline = Checker.rebaseline
let accept = Checker.accept

let tamper_file fs path =
  let content = Filesystem.read fs path in
  Filesystem.write fs path (content ^ "<shellcode-payload>")
