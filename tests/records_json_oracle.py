"""The records document built as a dict and written by `json.dumps(indent=2)`:
the reference that `experiments.records_to_json` is checked against byte for
byte."""

import json

from wva_lab.experiments import SCHEMA_VERSION, FAMILIES, _round12, record_to_dict


def records_to_json(family: str, parameter: float, records, fits: dict | None = None) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "family": family,
        "parameter": _round12(parameter),
        "sigma_baseline": FAMILIES[family].sigma_baseline,
        "records": [record_to_dict(r) for r in records],
    }
    if fits:
        doc["fits"] = {
            name: {
                "slope": _round12(fit.slope),
                "intercept": _round12(fit.intercept),
                "r_squared": _round12(fit.r_squared),
                "points_used": fit.points_used,
            }
            for name, fit in fits.items()
        }
    return json.dumps(doc, indent=2) + "\n"
