(** Independent answer checker for the benchmark.

    Written from Equation 1 and the hierarchy's per-node multipliers and
    capacities alone: it walks leaf-to-root paths itself and shares no code
    with the program's own [Cost], [Verify] or [Refine.cost], so a fault in
    those cannot hide a wrong answer from the benchmark. *)

type t

(** [prepare h] tabulates every leaf's path to the root of [h]. *)
val prepare : Hgp_hierarchy.Hierarchy.t -> t

type verdict = {
  cost : float;  (** Equation 1: sum over edges of [w(u,v) * cm(LCA)] *)
  max_load_ratio : float;
      (** largest node load over its capacity, over every node of every
          level, root included *)
}

(** [check t ~eps ~demands ~edges assignment] accepts an assignment that
    maps every vertex to a real leaf and loads no node of any level above
    [(1 + eps) (1 + h)] times its capacity, and returns its cost.  [edges]
    lists each undirected edge once as [(u, v, w)]. *)
val check :
  t ->
  eps:float ->
  demands:float array ->
  edges:(int * int * float) array ->
  int array ->
  (verdict, string) result

(** [agrees ~claimed cost] is true when a cost the program reported matches
    the recomputed one up to floating-point summation order. *)
val agrees : claimed:float -> float -> bool
