(** Addressing schemes and the cost of changing providers (§V-A1).

    "Either a customer is locked into his provider by the
    provider-based addresses, or he obtains a separate block of
    addresses that is not topologically significant and therefore adds
    to the size of the forwarding tables in the core."

    Three schemes and their customer-side cost: [switching_cost] is the
    renumbering pain (the lock-in the provider enjoys).  Portable space
    costs nothing here; its price is paid in the core's forwarding
    tables, which this model does not count.  Experiment E1 feeds
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
