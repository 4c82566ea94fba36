(** Exhaustion-certificate emission from the driver's frontier log.

    The searcher proves "no depth-[d] sorting network on [n] wires" by
    exhausting a subsumption-reduced BFS; this module turns the per-
    level surviving frontiers (collected via {!Driver.run}'s
    [frontier_log]) into a {!Cert.Exhaustion} certificate the
    independent checker can re-validate. Every expanded child of every
    frontier state gets a cover: a cited pool entry (the implicit
    initial state, or any earlier-logged frontier state) plus the
    witnessing wire permutation from {!Arena.subsumes_perm}. The
    derivation is deterministic — children are enumerated in
    {!Cert.all_matchings} order, equality hits cite the first identical
    pool entry with the identity permutation, and the fallback scan
    cites the lowest-indexed subsumer — so identical frontier logs
    (at any domain count, or after a resume) yield byte-identical
    certificates. *)

val exhaustion :
  n:int ->
  max_depth:int ->
  frontiers:State.t list list ->
  (Cert.t, string) result
(** [exhaustion ~n ~max_depth ~frontiers] builds and self-checks the
    certificate; [frontiers] holds the logged levels in order (levels
    beyond [max_depth - 1] are ignored). [Error] carries the reason no
    certificate exists: a width outside [2 <= n <= 10] (the search's
    own cap, {!Driver.network_system}; the checker's range in {!Cert}
    is wider), a sorted child (the claim is false), an uncovered child
    (the log came from an incompatible search), or a failed
    self-check. *)
