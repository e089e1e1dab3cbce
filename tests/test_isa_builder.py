"""KernelBuilder DSL: registers, labels, emission, build pipeline."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.builder import Kernel, KernelBuilder
from repro.isa.instructions import CmpOp, MemSpace, Op, reg
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

    def test_a_label_no_branch_targets_is_refused_by_name(self):
        kb = KernelBuilder("k")
        kb.label("top")
        kb.nop()
        kb.label("orphan")
        kb.bra("top")
        kb.exit_()
        with pytest.raises(AssemblyError, match="label 'orphan' defined but never"):
            kb.build(cta_size=32)

    def test_every_unused_label_is_named(self):
        kb = KernelBuilder("k")
        kb.label("a")
        kb.nop()
        kb.label("b")
        kb.exit_()
        with pytest.raises(AssemblyError, match="labels 'a', 'b' defined"):
            kb.build(cta_size=32)

    def test_a_builder_builds_twice(self):
        """Building resolves branch targets in place; a second build of
        the same builder still sees its labels used."""
        kb = KernelBuilder("k")
        r = kb.reg("r")
        kb.label("loop")
        kb.add(r, r, 1)
        kb.setp(r, CmpOp.LT, r, 3)
        kb.bra("loop", cond=r)
        kb.exit_()
        first = kb.build(cta_size=32)
        second = kb.build(cta_size=32)
        assert len(first.program) == len(second.program)


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
        # The register file is what the program names: not the
        # builder's limit, nor what it allocated (c is never named).
        kb = KernelBuilder("k", nregs=8)
        a, b, c = kb.regs("a", "b", "c")
        kb.mov(a, 1)
        kb.mov(a, 2, pred=b)
        kb.exit_()
        assert kb.used_registers == 3
        assert kb.build(cta_size=32).nregs == 2
        bare = KernelBuilder("k")
        bare.exit_()
        assert bare.build(cta_size=32).nregs == 0

    def test_a_kernel_refuses_a_register_outside_its_file(self):
        # Kernel(..., nregs=8) over a program that writes r9 used to die
        # at its first issue with a bare IndexError.
        kb = KernelBuilder("k")
        kb.mov(reg(9), 1)
        kb.exit_()
        kernel = kb.build(cta_size=32)
        assert kernel.nregs == 10
        culprit = "kernel k: %r names r9, past its 8 registers" % kernel.program[0]
        with pytest.raises(ValueError, match=re.escape(culprit)):
            Kernel("k", kernel.program, cta_size=32, grid_size=1, nregs=8)
        with pytest.raises(ValueError, match="nregs must be an int >= 0"):
            Kernel("k", kernel.program, cta_size=32, grid_size=1, nregs=-1)

    def test_a_kernel_refuses_a_param_outside_its_params(self):
        # A program reading %param2 of a two-parameter launch used to die
        # at that PC's first issue; a compiled plan no longer sees the
        # parameters, only the launch does.
        kb = KernelBuilder("k")
        (x,) = kb.regs("x")
        kb.mov(x, kb.param(2))
        kb.exit_()
        kernel = kb.build(cta_size=32, params=(1.0, 2.0, 3.0))
        culprit = "kernel k: %r names %%param2, past its 2 params" % kernel.program[0]
        with pytest.raises(ValueError, match=re.escape(culprit)):
            kernel.with_params(1.0, 2.0)
        with pytest.raises(ValueError, match=re.escape("past its 0 params")):
            kb.build(cta_size=32)
        assert kernel.with_params(4.0, 5.0, 6.0).params == (4.0, 5.0, 6.0)


class TestMalformedOperands:
    """Each malformed operand is refused as the instruction is emitted,
    naming the culprit, instead of building and then misbehaving at
    the first issue."""

    @given(index=st.one_of(st.integers(max_value=-1), st.booleans(), st.floats(), st.text(max_size=2)))
    def test_a_launch_parameter_index_is_an_int_from_zero(self, index):
        # param(-1) used to read the last launch parameter.
        kb = KernelBuilder("k")
        (x,) = kb.regs("x")
        with pytest.raises(AssemblyError, match=re.escape("got %r" % (index,))):
            kb.ld(x, kb.param(index))
        with pytest.raises(AssemblyError, match="launch parameter index"):
            kb.st(kb.param(index), x)

    @given(nregs=st.integers(min_value=1, max_value=64), extra=st.integers(min_value=0, max_value=200))
    def test_a_register_past_nregs_is_refused(self, nregs, extra):
        # reg(40) in a 4-register kernel used to die with a bare
        # IndexError at its first issue.
        kb = KernelBuilder("k", nregs=nregs)
        (a,) = kb.regs("a")
        far = reg(nregs + extra)
        culprit = "uses r%d, past its %d registers" % (nregs + extra, nregs)
        for emit in (
            lambda: kb.mov(far, 1),
            lambda: kb.add(a, a, far),
            lambda: kb.mov(a, 1, pred=far),
            lambda: kb.ld(a, kb.param(0), index=far),
            lambda: kb.bra("l", cond=far),
        ):
            with pytest.raises(AssemblyError, match=re.escape(culprit)):
                emit()
        assert kb.used_registers == 1
        kb.mov(reg(nregs - 1), 1)  # the last register is fine

    @given(cmp=st.one_of(st.sampled_from([c.value for c in CmpOp]), st.none(), st.integers()))
    def test_a_setp_comparison_is_a_cmp_op(self, cmp):
        # setp(p, "lt", a, b) used to build and fail at its first issue.
        kb = KernelBuilder("k")
        p, a = kb.regs("p", "a")
        with pytest.raises(AssemblyError, match=re.escape("got %r" % (cmp,))):
            kb.setp(p, cmp, a, 1)
        assert kb.setp(p, CmpOp.LT, a, 1).cmp is CmpOp.LT

    @given(flag=st.booleans(), where=st.integers(min_value=0, max_value=2))
    def test_a_bool_is_not_an_immediate(self, flag, where):
        # kb.add(a, a, True) used to assemble as ``add r0, r0, True``.
        kb = KernelBuilder("k")
        (a,) = kb.regs("a")
        emit = (
            lambda: kb.add(a, a, flag),
            lambda: kb.mov(a, flag),
            lambda: kb.st(kb.param(0), flag),
        )[where]
        with pytest.raises(AssemblyError, match="bad source operand %r" % flag):
            emit()
        assert kb.add(a, a, 1).srcs[1].value == 1
