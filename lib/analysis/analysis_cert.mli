(** Proof-carrying output for the analyzer's verdicts.

    Each emitter takes the analyzer's facts — the kernel's 0-1 sweeps
    ({!Bitslice.gate_activity}, {!Bitslice.level_images},
    {!Bitslice.find_unsorted}) in the exact domain, {!Analysis}'s
    order-bounds walk above it — records the per-level annotations a
    {!Cert} checker needs, and validates the finished certificate with
    {!Cert.check} before returning it. So an [Ok] certificate has
    already been accepted by the independent checker, and an analyzer
    bug surfaces here as an [Error], never as a bogus certificate. *)

val sortedness :
  ?exact_max_wires:int -> Network.t -> (Cert.t, string) result
(** A certificate for the network's sortedness verdict: within the
    exact domain ([wires <= exact_max_wires], default
    {!Analysis.default_exact_max_wires}), either a reach-domain
    {!Cert.Sortedness} (network sorts) or a {!Cert.Refutation} with
    the smallest unsorted input as witness (it does not). Above the
    cutoff, a bounds-domain {!Cert.Sortedness} when the order-matrix
    walk proves sorting; [Error] when it cannot decide. *)

val dead_gates :
  ?exact_max_wires:int -> Network.t -> (Cert.t option, string) result
(** The reachable sets justifying every [SNL201] dead-comparator
    diagnostic, as one {!Cert.Dead_gates} certificate. [Ok None] when
    the network is outside the exact domain or has no dead gates. *)
