"""A model-specific-register file for the platform.

Two register families matter to this study:

- ``MISC_FEATURE_CONTROL`` (0x1A4): the four prefetcher-disable bits used
  in Section 3.3 (bit 0 MLC streamer, bit 1 MLC spatial, bit 2 DCU
  streamer, bit 3 DCU IP; a set bit *disables* the prefetcher).
- CAT-style partitioning registers: ``IA32_PQR_ASSOC`` (per logical CPU,
  selects a class of service) and ``IA32_L3_QOS_MASK_BASE + clos`` (the way
  bitmask of each class). The prototype chip predates public CAT, but the
  interface is equivalent and is what resctrl drives on shipping parts.
"""

from repro.util.errors import ValidationError

MISC_FEATURE_CONTROL = 0x1A4
IA32_PQR_ASSOC = 0xC8F
IA32_L3_QOS_MASK_BASE = 0xC90

PREFETCHER_BITS = {
    "mlc_streamer": 0,
    "mlc_spatial": 1,
    "dcu_streamer": 2,
    "dcu_ip": 3,
}


class MsrFile:
    """Per-logical-CPU MSR state.

    Holds register values only; a write has no side effect. The resctrl
    layer records its masks and class assignments here, while
    ``CoScheduleHarness`` hands the same allocations to the ``Machine``.
    """

    def __init__(self, num_cpus=8):
        if num_cpus < 1:
            raise ValidationError("need at least one logical cpu")
        self.num_cpus = num_cpus
        self._regs = [dict() for _ in range(num_cpus)]

    def read(self, cpu, msr):
        self._check_cpu(cpu)
        return self._regs[cpu].get(msr, 0)

    def write(self, cpu, msr, value):
        self._check_cpu(cpu)
        if value < 0:
            raise ValidationError("MSR values are unsigned")
        self._regs[cpu][msr] = value

    def _check_cpu(self, cpu):
        if not 0 <= cpu < self.num_cpus:
            raise ValidationError(f"cpu {cpu} out of range")

    # -- convenience wrappers used by the runtime layer --------------------

    def set_prefetcher(self, cpu, name, enabled):
        """Enable/disable one prefetcher by name on one logical CPU."""
        if name not in PREFETCHER_BITS:
            raise ValidationError(f"unknown prefetcher {name!r}")
        bit = PREFETCHER_BITS[name]
        value = self.read(cpu, MISC_FEATURE_CONTROL)
        if enabled:
            value &= ~(1 << bit)
        else:
            value |= 1 << bit
        self.write(cpu, MISC_FEATURE_CONTROL, value)

    def prefetcher_enabled(self, cpu, name):
        bit = PREFETCHER_BITS[name]
        return not (self.read(cpu, MISC_FEATURE_CONTROL) >> bit) & 1

    def set_clos(self, cpu, clos):
        """Associate a logical CPU with a class of service."""
        self.write(cpu, IA32_PQR_ASSOC, clos)

    def clos_of(self, cpu):
        return self.read(cpu, IA32_PQR_ASSOC)

    def set_clos_mask(self, clos, bits):
        """Program the way bitmask of a class of service (on cpu 0)."""
        if bits <= 0:
            raise ValidationError("a CLOS mask needs at least one way")
        self.write(0, IA32_L3_QOS_MASK_BASE + clos, bits)

    def clos_mask(self, clos):
        return self.read(0, IA32_L3_QOS_MASK_BASE + clos)
