import pytest

from repro.cpu.msr import (
    IA32_L3_QOS_MASK_BASE,
    IA32_PQR_ASSOC,
    MISC_FEATURE_CONTROL,
    PREFETCHER_BITS,
    MsrFile,
)
from repro.util.errors import ValidationError


@pytest.fixture()
def msr():
    return MsrFile(num_cpus=8)


class TestRawAccess:
    def test_unwritten_registers_read_zero(self, msr):
        assert msr.read(0, 0x1234) == 0

    def test_write_read_roundtrip(self, msr):
        msr.write(3, 0x1234, 0xDEAD)
        assert msr.read(3, 0x1234) == 0xDEAD
        assert msr.read(2, 0x1234) == 0  # per-cpu isolation

    def test_cpu_bounds(self, msr):
        with pytest.raises(ValidationError):
            msr.read(8, 0x1234)
        with pytest.raises(ValidationError):
            msr.write(-1, 0x1234, 0)

    def test_negative_value_rejected(self, msr):
        with pytest.raises(ValidationError):
            msr.write(0, 0x1234, -1)


class TestPrefetcherBits:
    def test_all_enabled_by_default(self, msr):
        for name in PREFETCHER_BITS:
            assert msr.prefetcher_enabled(0, name)

    def test_disable_sets_bit(self, msr):
        msr.set_prefetcher(0, "dcu_ip", False)
        assert not msr.prefetcher_enabled(0, "dcu_ip")
        assert msr.read(0, MISC_FEATURE_CONTROL) == 1 << PREFETCHER_BITS["dcu_ip"]

    def test_reenable_clears_bit(self, msr):
        msr.set_prefetcher(0, "mlc_streamer", False)
        msr.set_prefetcher(0, "mlc_streamer", True)
        assert msr.read(0, MISC_FEATURE_CONTROL) == 0

    def test_bits_independent(self, msr):
        msr.set_prefetcher(0, "mlc_streamer", False)
        msr.set_prefetcher(0, "dcu_streamer", False)
        msr.set_prefetcher(0, "mlc_streamer", True)
        assert not msr.prefetcher_enabled(0, "dcu_streamer")

    def test_unknown_prefetcher(self, msr):
        with pytest.raises(ValidationError):
            msr.set_prefetcher(0, "l4_magic", True)


class TestCatRegisters:
    def test_clos_association(self, msr):
        msr.set_clos(5, 2)
        assert msr.clos_of(5) == 2
        assert msr.read(5, IA32_PQR_ASSOC) == 2

    def test_clos_mask_programming(self, msr):
        msr.set_clos_mask(1, 0xFF0)
        assert msr.clos_mask(1) == 0xFF0
        assert msr.read(0, IA32_L3_QOS_MASK_BASE + 1) == 0xFF0

    def test_empty_mask_rejected(self, msr):
        with pytest.raises(ValidationError):
            msr.set_clos_mask(1, 0)
