"""Tests of stability.py's quartile spread against hand-computed values.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from stability import quartile_spread


class QuartileSpreadTest(unittest.TestCase):
    def test_one_to_ten(self):
        # Exclusive quartiles at positions 2.75 and 8.25; median 5.5.
        self.assertAlmostEqual(quartile_spread(list(range(1, 11))), 1.0)

    def test_unsorted_with_ties(self):
        # Sorted: 2 4 4 4 5 5 7 9.  Q1 at position 2.25 = 4, Q3 at 6.75 =
        # 5 + 0.75 * 2 = 6.5, median 4.5.
        self.assertAlmostEqual(quartile_spread([5, 9, 4, 2, 4, 7, 4, 5]),
                               2.5 / 4.5)

    def test_constant_series_has_no_spread(self):
        self.assertEqual(quartile_spread([3.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
