"""Operating-point memoization for the interval fixed point.

``solve_interval`` is a pure function of the active applications'
*operating signatures* — which app, which phase, which way mask, how
many threads on which cores, prefetchers on or off — plus the machine's
config and tuning. Static runs revisit the same signature whenever a
continuous background wraps back into a phase, and dynamic runs return
to earlier signatures as the controller moves a mask back and forth, so
caching the solved :class:`IntervalSolution` removes most of the
engine's work on exactly the runs that are slow. Between events that
can change the signature (a phase change, a mask write, a finish, a
swapped config, tuning or arbitration domain), a stepped run of
``Machine._steps`` holds its last solution without building a key at
all, and counts each held tick as a hit (:meth:`IntervalMemo.hit`), so
hits and misses are what a key lookup on every tick would have counted.

Correctness notes:

- Each application model enters the key as a token taken from a full
  *fingerprint* (name, intensity, miss-ratio curve, phases,
  scalability), so two models that happen to share a name can never
  alias each other's solutions. The fingerprint is taken once, the
  first time an app object is seen; later ticks look its token up by
  identity, so mutating an app in place after it ran is unsupported,
  as for config and tuning below.
- Config and tuning enter the key by object identity (the memo pins a
  reference so ids cannot be recycled). Swapping ``machine.tuning`` or
  ``machine.config`` therefore invalidates implicitly; mutating one in
  place is not supported — call :meth:`IntervalMemo.clear`.
- A hit returns the identical solution object the miss produced, so a
  memoized run is bitwise equal to an unmemoized one. Consumers treat
  solutions as read-only, which the engine and controllers do.
"""

from repro.perf import engine_counters as perf


def app_fingerprint(app):
    """Everything about a model that the interval solution depends on."""
    sc = app.scalability
    mrc = app.mrc
    return (
        app.name,
        app.llc_apki,
        app.base_cpi,
        app.mlp,
        app.pf_coverage,
        app.pf_pollution,
        app.wb_fraction,
        app.dram_efficiency,
        app.cache_pressure,
        tuple((p.weight, p.apki_mult, p.ws_mult, p.amp_mult) for p in app.phases),
        (
            sc.parallel_fraction,
            sc.smt_gain,
            sc.sync_overhead,
            sc.saturation_threads,
            sc.single_threaded,
            sc.pow2_only,
        ),
        (mrc.floor, mrc.components, mrc.direct_mapped_penalty),
    )


class IntervalMemo:
    """A signature-keyed cache of solved intervals with hit/miss stats."""

    def __init__(self, enabled=True, max_entries=65536):
        self.enabled = enabled
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._cache = {}
        # id() -> small int token; the pin list keeps the objects alive so
        # CPython cannot recycle an id into a colliding token.
        self._tokens = {}
        self._pins = []

    # -- keys ---------------------------------------------------------------

    def _token(self, obj, fingerprint=None):
        token = self._tokens.get(id(obj))
        if token is None:
            token = len(self._pins)
            self._tokens[id(obj)] = token
            self._pins.append(obj)
            if fingerprint is not None:
                # Distinct objects with equal fingerprints share a token.
                canonical = self._tokens.setdefault(fingerprint, token)
                if canonical != token:
                    self._tokens[id(obj)] = canonical
                    return canonical
        return token

    def key_for(self, states, config, tuning, memory_system):
        """The operating signature of one interval.

        The arbitration domains are part of the signature because QoS
        contracts swap them out (``apply_qos``): solutions computed under
        one contract set must never answer for another. Restoring the
        original domain objects restores their tokens, so pre-QoS
        entries stay valid across an apply/restore cycle.
        """
        get = self._tokens.get
        ring, dram = memory_system.ring, memory_system.dram
        key = [get(id(config)), get(id(tuning)), get(id(ring)), get(id(dram))]
        if None in key:
            key = [self._token(obj) for obj in (config, tuning, ring, dram)]
        for s in states:
            app = s.app
            token = get(id(app))
            if token is None:
                # Fingerprinted only the first time this object is seen.
                token = self._token(app, app_fingerprint(app))
            allocation = s.allocation
            key.append((
                token,
                app.phase_index_at(s.progress),
                allocation.mask.bits,
                allocation.threads,
                allocation.cores,
                s.prefetchers_on,
            ))
        return tuple(key)

    # -- cache protocol -----------------------------------------------------

    def get(self, key):
        solution = self._cache.get(key)
        if solution is None:
            self.misses += 1
            perf.add(perf.MEMO_MISSES)
        else:
            self.hit()
        return solution

    def hit(self, count=1):
        """Count hits: lookups that found their key, or intervals whose
        key the engine knows is unchanged since their last solve."""
        self.hits += count
        perf.add(perf.MEMO_HITS, count)

    def put(self, key, solution):
        if len(self._cache) >= self.max_entries:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = solution

    def clear(self):
        """Drop every cached solution and identity pin (full invalidation)."""
        self._cache.clear()
        self._tokens.clear()
        self._pins.clear()
        self.hits = 0
        self.misses = 0

    # -- reporting ----------------------------------------------------------

    @property
    def entries(self):
        return len(self._cache)

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self):
        return {
            "enabled": self.enabled,
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }
