"""Attach declarations to a nonlinearity for the tests that build local maps."""

import functools

import eqdeg.galerkin


def declared(nonlinearity, **declarations):
    """A nonlinearity that computes as ``nonlinearity`` does and carries its
    attributes (``jacobian``, ``affine``, ``tail``, ``blocks``), with the
    given ones set or replaced; the original is left as it is."""

    @functools.wraps(nonlinearity)
    def F(X, basis):
        return nonlinearity(X, basis)

    vars(F).update(declarations)
    return F


def count_searches(monkeypatch):
    """The dimension of each zero search the Galerkin level step runs: over
    all of V_n, or over one block of W."""
    dims = []

    def counting(fld, *args, original=eqdeg.galerkin.search_zeros, **kwargs):
        dims.append(fld.rep.dim)
        return original(fld, *args, **kwargs)

    monkeypatch.setattr(eqdeg.galerkin, "search_zeros", counting)
    return dims
