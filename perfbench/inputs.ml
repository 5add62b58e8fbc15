(* Seeded inputs.  Every workload solves nets of the paper suite
   ([Rip_workload.Suite.nets], pinned seed); the --seed argument drives
   one generator per workload that orders and picks the requests.  The
   program sees only the generated nets and budgets. *)

let process = Rip_tech.Process.default_180nm

(* An independent generator per (workload salt, seed). *)
let rng ~salt seed =
  Rip_numerics.Prng.create
    (Int64.logxor (Int64.of_int ((salt + 1) * 0x9E3779B9)) (Int64.of_int seed))
