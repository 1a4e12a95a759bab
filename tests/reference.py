"""Test helpers: the ensemble ops at outputs y, and the reference ``predict``.

``adapt`` and ``predict`` take the model's bases at the tick point, as the
loop evaluates them once per point; ``adapt_at`` and ``predict_at`` evaluate
them at y first, one output per batch entry (a one-element y for an
unbatched ensemble).  ``reference_predict`` is ``predict`` as it was before
its two spread sums became one reduction: it evaluates the bases itself,
keeps the sign in the derivative of the predicted estimates and reduces
r_var and the gradient's sum separately.
"""

import numpy as np

from dcee import adapt, predict
from dcee.ensemble import BeliefStats, _mean, _rows, _step


def bases(ens, y, model):
    """The regressor, the known offset and the regressor's derivative at y."""
    y = np.asarray(y, dtype=float).reshape(ens.thetas.shape[:-2])
    return model.unknown_basis(y), model.known_basis(y), model.basis_jacobian(y)


def adapt_at(ens, y, j_obs, model):
    phi, known, _ = bases(ens, y, model)
    return adapt(ens, phi, known, j_obs)


def predict_at(ens, dev, y, model):
    phi, _, dphi = bases(ens, y, model)
    return predict(ens, dev, phi, dphi, model)


def reference_predict(ens, dev, y_cand, model) -> BeliefStats:
    y = np.asarray(y_cand, dtype=float).reshape(ens.thetas.shape[:-2])
    phi, dphi = model.unknown_basis(y), model.basis_jacobian(y)
    phi_row, along = phi[..., None, :], dev @ phi[..., :, None]
    pred = _step(ens, along, phi_row)
    rows = _rows(pred)
    optima = model.optimum_map_batch(rows)
    r = optima.reshape(pred.shape[:-1])
    r_mean = _mean(r, -1)
    centred = r - r_mean[..., None]

    dpred = -(ens.rates[:, None] * (dphi[..., None, :] * along
                                    + phi_row * (dev @ dphi[..., :, None])))
    dr = np.einsum("nm,nm->n", model.optimum_jacobian(rows, optima), _rows(dpred))
    return BeliefStats(r_mean, _mean(centred ** 2, -1),
                       2.0 * _mean(centred * dr.reshape(r.shape), -1))
