"""KernelBuilder DSL: registers, labels, emission, build pipeline."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.builder import Kernel, KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace, Op
from repro.isa.program import AssemblyError


class TestRegisters:
    def test_named_registers_stable(self):
        kb = KernelBuilder("k")
        a1 = kb.reg("a")
        a2 = kb.reg("a")
        b = kb.reg("b")
        assert a1 == a2 and a1 != b

    def test_regs_bulk(self):
        kb = KernelBuilder("k")
        a, b, c = kb.regs("a", "b", "c")
        assert len({a.value, b.value, c.value}) == 3

    def test_out_of_registers(self):
        kb = KernelBuilder("k", nregs=2)
        kb.regs("a", "b")
        with pytest.raises(AssemblyError, match="out of registers"):
            kb.reg("c")

    def test_used_registers(self):
        kb = KernelBuilder("k")
        kb.regs("a", "b")
        assert kb.used_registers == 2

    def test_destination_must_be_register(self):
        kb = KernelBuilder("k")
        with pytest.raises(AssemblyError):
            kb.mov(kb.tid, 1)

    def test_bad_source(self):
        kb = KernelBuilder("k")
        (a,) = kb.regs("a")
        with pytest.raises(AssemblyError):
            kb.add(a, a, "nope")


class TestLabels:
    def test_auto_labels_unique(self):
        kb = KernelBuilder("k")
        l1 = kb.label()
        kb.nop()
        l2 = kb.label()
        assert l1 != l2

    def test_duplicate_label_rejected(self):
        kb = KernelBuilder("k")
        kb.label("x")
        with pytest.raises(AssemblyError, match="duplicate"):
            kb.label("x")


class TestEmission:
    def test_setp_records_comparison(self):
        kb = KernelBuilder("k")
        a, b = kb.regs("a", "b")
        instr = kb.setp(a, CmpOp.GE, b, 3)
        assert instr.op is Op.SETP and instr.cmp is CmpOp.GE

    def test_predicated_emission(self):
        kb = KernelBuilder("k")
        a, p = kb.regs("a", "p")
        instr = kb.mov(a, 1, pred=p, pred_neg=True)
        assert instr.pred == p.value and instr.pred_neg

    def test_memory_operands(self):
        kb = KernelBuilder("k")
        a, i = kb.regs("a", "i")
        ld = kb.ld(a, kb.param(0), index=i, offset=8, space=MemSpace.SHARED)
        assert ld.offset == 8 and ld.space is MemSpace.SHARED
        st = kb.st(kb.param(0), a, index=i)
        assert st.dst is None and len(st.srcs) == 3

    def test_atom_add_optional_destination(self):
        kb = KernelBuilder("k")
        a, i = kb.regs("a", "i")
        with_dst = kb.atom_add(a, kb.param(0), 1.0, index=i)
        without = kb.atom_add(None, kb.param(0), 1.0, index=i)
        assert with_dst.dst == a.value and without.dst is None

    def test_branch_negation(self):
        kb = KernelBuilder("k")
        (p,) = kb.regs("p")
        kb.label("l")
        instr = kb.bra("l", cond=p, neg=True)
        assert instr.pred_neg and instr.srcs


class TestBuild:
    def test_build_produces_kernel(self):
        kb = KernelBuilder("k", nregs=4)
        kb.nop()
        kb.exit_()
        kernel = kb.build(cta_size=64, grid_size=2, params=(1.0, 2))
        assert isinstance(kernel, Kernel)
        assert kernel.total_threads == 128
        assert kernel.params == (1.0, 2.0)

    def test_build_runs_layout_pipeline(self):
        kb = KernelBuilder("k")
        p, v = kb.regs("p", "v")
        kb.and_(p, kb.tid, 1)
        kb.bra("e", cond=p)
        kb.mov(v, 1)
        kb.bra("j")
        kb.label("e")
        kb.mov(v, 2)
        kb.label("j")
        kb.exit_()
        kernel = kb.build(cta_size=32)
        branch = kernel.program[1]
        assert branch.reconv_pc is not None
        assert any(i.sync_pcdiv is not None for i in kernel.program)

    def test_with_params(self):
        kb = KernelBuilder("k")
        kb.exit_()
        kernel = kb.build(cta_size=32, params=(1.0,))
        other = kernel.with_params(9.0, 10.0)
        assert other.params == (9.0, 10.0)
        assert other.program is kernel.program

    @given(
        field=st.sampled_from(["cta_size", "grid_size", "shared_bytes"]),
        value=st.one_of(
            st.integers(max_value=-1),
            st.floats(allow_nan=False),
            st.booleans(),
            st.text(max_size=3),
            st.none(),
        ),
    )
    def test_launch_geometry_is_checked_where_a_kernel_is_made(self, field, value):
        kb = KernelBuilder("k")
        kb.exit_()
        geometry = {"cta_size": 32, "grid_size": 1, "shared_bytes": 0, field: value}
        message = "%s must be an int >= %d, got %r" % (
            field, 1 if field == "cta_size" else 0, value
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            kb.build(**geometry)
        kernel = kb.build(cta_size=32)
        with pytest.raises(ValueError, match=re.escape(message)):
            Kernel(**{**vars(kernel), field: value})

    @pytest.mark.parametrize("field, least", [("cta_size", 1), ("grid_size", 0), ("shared_bytes", 0)])
    def test_launch_geometry_takes_its_least_value(self, field, least):
        kb = KernelBuilder("k")
        kb.exit_()
        geometry = {"cta_size": 32, "grid_size": 1, "shared_bytes": 0, field: least}
        kernel = kb.build(**geometry).with_params(1.0)
        assert getattr(kernel, field) == least
        with pytest.raises(ValueError, match="kernel k: %s must be" % field):
            kb.build(**{**geometry, field: least - 1})

    def test_nregs_tracks_usage(self):
        kb = KernelBuilder("k", nregs=4)
        kb.regs("a", "b", "c")
        kb.exit_()
        assert kb.build(cta_size=32).nregs == 4
