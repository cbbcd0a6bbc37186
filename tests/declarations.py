"""Attach declarations to a nonlinearity for the tests that build local maps."""

import functools


def declared(nonlinearity, **declarations):
    """A nonlinearity that computes as ``nonlinearity`` does and carries its
    attributes (``jacobian``, ``affine``, ``tail``, ``blocks``), with the
    given ones set or replaced; the original is left as it is."""

    @functools.wraps(nonlinearity)
    def F(X, basis):
        return nonlinearity(X, basis)

    vars(F).update(declarations)
    return F
