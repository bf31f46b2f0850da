(** Addressing schemes and the cost of changing providers (§V-A1).

    "Either a customer is locked into his provider by the
    provider-based addresses, or he obtains a separate block of
    addresses that is not topologically significant and therefore adds
    to the size of the forwarding tables in the core."

    Three schemes, two costs.  [switching_cost] is the customer-side
    renumbering pain (the lock-in the provider enjoys); [routing_table
    _burden] is the system-side price of making addresses portable —
    the two horns of the paper's dilemma.  Experiment E1 feeds
    [switching_cost] into the market model and watches churn and
    surplus respond. *)

type scheme =
  | Provider_based of { static_hosts : int }
      (** addresses embed the provider; every statically configured host
          must be renumbered by hand on a switch *)
  | Dynamic of { hosts : int }
      (** DHCP + dynamic DNS: renumbering is automated; residual cost is
          a small per-site reconfiguration *)
  | Portable of { prefixes : int }
      (** provider-independent space: zero renumbering, but each prefix
          occupies a slot in every core routing table *)

val switching_cost : scheme -> float
(** Customer-side cost of changing providers: 1.0 per statically
    configured host, 0.5 site overhead for dynamic sites, 0 for
    portable space. *)

val routing_table_burden : core_routers:int -> scheme -> float
(** System-side cost: portable prefixes cost one slot in each core
    router; provider-based and dynamic aggregation cost none. *)
