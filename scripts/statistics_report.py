#!/usr/bin/env python3
"""Print the joint statistic tables for small orders: for each n, the
generating function, the matching per-(nu, mu, rho) cell counts of the
two families, and the refined column sums against the closed forms.

Usage: python3 scripts/statistics_report.py [--max-n N]

An order below 1 or past the brute-force cap exits with 2 and
"error: <message>" before anything is printed.
"""

import argparse
import sys

from asmdpp.asm import z_asm_brute
from asmdpp.dpp import z_dpp_brute
from asmdpp.errors import AsmDppError
from asmdpp.formulas import asm_total, refined_total
from asmdpp.limits import BRUTE_FORCE_LIMIT, check_order
from asmdpp.matrices import genfunc_det
from asmdpp.polynomial import Z_IDX, marginal, poly_str


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5, dest="max_n")
    args = parser.parse_args()
    try:
        check_order(args.max_n, BRUTE_FORCE_LIMIT, "brute-force generating function")
    except AsmDppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for n in range(1, args.max_n + 1):
        # the coefficient of x^nu y^mu z^rho is the count of that cell
        asm_cells = z_asm_brute(n).terms
        dpp_cells = z_dpp_brute(n).terms

        total = sum(asm_cells.values())
        print(f"== order {n}: {total} objects per family (formula {asm_total(n)})")
        print(f"   Z = {poly_str(genfunc_det(n))}")
        disagreements = [
            cell[:3]
            for cell in set(asm_cells) | set(dpp_cells)
            if asm_cells.get(cell) != dpp_cells.get(cell)
        ]
        print(
            f"   {len(asm_cells)} occupied (nu, mu, rho) cells, "
            f"{'all equal' if not disagreements else f'DISAGREE at {disagreements}'}"
        )
        by_rho = marginal(z_asm_brute(n), Z_IDX)
        refined = [by_rho[k] for k in range(n)]
        formula = [refined_total(n, kk) for kk in range(n)]
        print(f"   refined counts by rho: {refined} (formula {formula})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
