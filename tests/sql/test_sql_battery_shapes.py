"""SQL shape battery: one-line ``(SQL, rows, cols)`` cases, four paths.

Opteryx-style (``tests/sql_battery/test_battery_shape.py``): every case
is a single line of SQL with its expected result shape.  Beyond the
exemplar, each case here is executed on **four** paths that must agree:

* **cold** — first execution on a shared warm database (shape checked
  against the expectation);
* **warm** — the same text again on the same database: the plan must
  fully unify with the recycler graph (``num_inserted == 0``) and the
  result must be byte-identical to the cold run, including row order;
* **engine-only** — the *as-bound* plan (``db.plan``) straight through
  ``execute_plan``: no optimizer, no recycler — same row multiset;
* **process-mode** — a session routing cold plans to shard worker
  processes: same row multiset.

The fixture data is fixed by hand so the expected shapes are derivable
by inspection, and spans the whole SQL surface: filters (BETWEEN / IN /
NOT IN / LIKE / NaN), all six join kinds, EXISTS / IN / scalar
subqueries, grouping and HAVING, UNION ALL, derived tables, ordering
and limits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Database
from repro.columnar import (Catalog, DATE, FLOAT64, INT64, STRING, Table,
                            date_to_days)
from repro.engine import execute_plan

NAN = float("nan")


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register_table("sales", Table.from_rows(
        ["sale_id", "store_id", "product", "quantity", "price", "sold_on"],
        [INT64, INT64, STRING, INT64, FLOAT64, DATE],
        [
            (1, 1, "apple", 3, 1.5, date_to_days("2023-01-05")),
            (2, 1, "pear", 1, 2.0, date_to_days("2023-01-07")),
            (3, 2, "apple", 5, 1.4, date_to_days("2023-02-11")),
            (4, 2, "plum", 2, 3.0, date_to_days("2023-02-14")),
            (5, 3, "apple", 7, 1.6, date_to_days("2023-03-02")),
            (6, 3, "pear", 4, 2.1, date_to_days("2023-03-09")),
            (7, 1, "plum", 6, 2.9, date_to_days("2023-04-21")),
            (8, 2, "pear", 8, 2.2, date_to_days("2023-04-25")),
        ]))
    catalog.register_table("stores", Table.from_rows(
        ["store_id", "city", "region"], [INT64, STRING, STRING],
        [(1, "Edinburgh", "north"), (2, "London", "south"),
         (3, "Glasgow", "north")]))
    catalog.register_table("nums", Table.from_rows(
        ["k", "f", "s"], [INT64, FLOAT64, STRING],
        [(1, 0.5, "a"), (2, 1.5, "b"), (3, NAN, "a"), (4, 3.5, "c"),
         (5, 4.5, "b"), (6, NAN, "a"), (7, 6.5, "d"), (8, 7.5, "c"),
         (9, 8.5, "b"), (10, 9.5, "a")]))
    catalog.register_table("cust", Table.from_rows(
        ["cid", "name", "country"], [INT64, STRING, STRING],
        [(1, "alice", "de"), (2, "bob", "de"), (3, "carol", "us"),
         (4, "dave", "fr"), (5, "erin", "us")]))
    # cids 6 and 7 dangle (no customer); customer 4 has no orders.
    catalog.register_table("ords", Table.from_rows(
        ["oid", "cid", "total", "item"], [INT64, INT64, FLOAT64, STRING],
        [(1, 1, 10.0, "x"), (2, 1, 20.0, "y"), (3, 2, 30.0, "z"),
         (4, 3, 40.0, "x"), (5, 3, 50.0, "y"), (6, 3, 60.0, "z"),
         (7, 5, 70.0, "x"), (8, 5, 80.0, "y"), (9, 6, 90.0, "z"),
         (10, 6, 100.0, "x"), (11, 7, 110.0, "y"), (12, 1, 120.0, "z")]))
    catalog.register_table("void", Table.from_rows(
        ["a", "b"], [INT64, STRING], []))
    return catalog


# ---------------------------------------------------------------------
# the battery: (sql, expected_rows, expected_cols)
# ---------------------------------------------------------------------
CASES: list[tuple[str, int, int]] = [
    # --- projection & scan basics -----------------------------------
    ("SELECT * FROM sales", 8, 6),
    ("SELECT * FROM stores", 3, 3),
    ("SELECT * FROM nums", 10, 3),
    ("SELECT * FROM cust", 5, 3),
    ("SELECT * FROM ords", 12, 4),
    ("SELECT * FROM void", 0, 2),
    ("SELECT sale_id FROM sales", 8, 1),
    ("SELECT sale_id, product FROM sales", 8, 2),
    ("SELECT product, quantity, price FROM sales", 8, 3),
    ("SELECT quantity + 1 AS q1 FROM sales", 8, 1),
    ("SELECT quantity * price AS amount FROM sales", 8, 1),
    ("SELECT price - 1.0 AS p, quantity FROM sales", 8, 2),
    ("SELECT -quantity AS neg FROM sales", 8, 1),
    ("SELECT quantity % 2 AS parity FROM sales", 8, 1),
    ("SELECT sale_id AS id, sale_id AS id2 FROM sales", 8, 2),
    ("SELECT DISTINCT product FROM sales", 3, 1),
    ("SELECT DISTINCT store_id FROM sales", 3, 1),
    ("SELECT DISTINCT store_id, product FROM sales", 8, 2),
    ("SELECT DISTINCT region FROM stores", 2, 1),
    ("SELECT DISTINCT item FROM ords", 3, 1),
    ("SELECT DISTINCT cid FROM ords", 6, 1),
    ("SELECT DISTINCT s FROM nums", 4, 1),
    ("SELECT upper(product) AS p FROM sales", 8, 1),
    ("SELECT lower(city) AS c FROM stores", 3, 1),
    ("SELECT length(name) AS n FROM cust", 5, 1),
    ("SELECT abs(0 - quantity) AS aq FROM sales", 8, 1),
    ("SELECT round(price) AS rp FROM sales", 8, 1),
    ("SELECT year(sold_on) AS y FROM sales", 8, 1),
    ("SELECT month(sold_on) AS m FROM sales", 8, 1),
    ("SELECT substr(product, 1, 2) AS pre FROM sales", 8, 1),
    ("SELECT CASE WHEN quantity > 4 THEN 1 ELSE 0 END AS big FROM sales",
     8, 1),
    ("SELECT CASE WHEN price < 2.0 THEN 'cheap' ELSE 'dear' END AS tag"
     " FROM sales", 8, 1),
    # --- single-table filters ---------------------------------------
    ("SELECT * FROM sales WHERE quantity > 4", 4, 6),
    ("SELECT * FROM sales WHERE quantity >= 4", 5, 6),
    ("SELECT * FROM sales WHERE quantity < 4", 3, 6),
    ("SELECT * FROM sales WHERE quantity <= 4", 4, 6),
    ("SELECT * FROM sales WHERE quantity = 4", 1, 6),
    ("SELECT * FROM sales WHERE quantity <> 4", 7, 6),
    ("SELECT * FROM sales WHERE price < 2.0", 3, 6),
    ("SELECT * FROM sales WHERE product = 'apple'", 3, 6),
    ("SELECT * FROM sales WHERE product <> 'apple'", 5, 6),
    ("SELECT * FROM sales WHERE store_id = 1", 3, 6),
    ("SELECT * FROM sales WHERE store_id = 1 AND product = 'plum'", 1, 6),
    ("SELECT * FROM sales WHERE store_id = 1 OR product = 'plum'", 4, 6),
    ("SELECT * FROM sales WHERE NOT product = 'apple'", 5, 6),
    ("SELECT * FROM sales WHERE NOT (quantity > 4)", 4, 6),
    ("SELECT * FROM sales WHERE quantity > 2 AND quantity < 7", 4, 6),
    ("SELECT * FROM sales WHERE price BETWEEN 1.5 AND 2.2", 5, 6),
    ("SELECT * FROM sales WHERE quantity BETWEEN 2 AND 6", 5, 6),
    ("SELECT * FROM sales WHERE quantity NOT BETWEEN 2 AND 6", 3, 6),
    ("SELECT * FROM sales WHERE product IN ('apple', 'plum')", 5, 6),
    ("SELECT * FROM sales WHERE product IN ('apple')", 3, 6),
    ("SELECT * FROM sales WHERE product NOT IN ('apple')", 5, 6),
    ("SELECT * FROM sales WHERE product NOT IN ('apple', 'pear')", 2, 6),
    ("SELECT * FROM sales WHERE quantity IN (1, 3, 5)", 3, 6),
    ("SELECT * FROM sales WHERE quantity NOT IN (1, 3, 5)", 5, 6),
    ("SELECT * FROM sales WHERE product IN ()", 0, 6),
    ("SELECT * FROM sales WHERE product NOT IN ()", 8, 6),
    ("SELECT * FROM sales WHERE quantity IN ()", 0, 6),
    ("SELECT * FROM sales WHERE quantity NOT IN ()", 8, 6),
    ("SELECT * FROM sales WHERE product LIKE 'p%'", 5, 6),
    ("SELECT * FROM sales WHERE product LIKE '%ear'", 3, 6),
    ("SELECT * FROM sales WHERE product LIKE '_pple'", 3, 6),
    ("SELECT * FROM sales WHERE product LIKE '%l%'", 5, 6),
    ("SELECT * FROM sales WHERE product NOT LIKE 'a%'", 5, 6),
    ("SELECT * FROM sales WHERE product NOT LIKE '%ear'", 5, 6),
    ("SELECT * FROM sales WHERE sold_on >= DATE '2023-03-01'", 4, 6),
    ("SELECT * FROM sales WHERE sold_on < DATE '2023-02-01'", 2, 6),
    ("SELECT * FROM sales WHERE sold_on BETWEEN DATE '2023-02-01' AND"
     " DATE '2023-03-31'", 4, 6),
    ("SELECT * FROM stores WHERE region = 'north'", 2, 3),
    ("SELECT * FROM stores WHERE city LIKE '%o%'", 2, 3),
    ("SELECT * FROM cust WHERE country IN ('de', 'us')", 4, 3),
    ("SELECT * FROM cust WHERE country NOT IN ('de', 'us')", 1, 3),
    ("SELECT * FROM ords WHERE total > 65.0", 6, 4),
    ("SELECT * FROM ords WHERE item = 'x'", 4, 4),
    ("SELECT * FROM ords WHERE item IN ('x', 'y')", 8, 4),
    ("SELECT * FROM ords WHERE total BETWEEN 30.0 AND 80.0", 6, 4),
    ("SELECT * FROM void WHERE a > 0", 0, 2),
    # --- NaN three-valued-logic edges -------------------------------
    ("SELECT * FROM nums WHERE f > 4.0", 5, 3),
    ("SELECT * FROM nums WHERE f < 4.0", 3, 3),
    ("SELECT * FROM nums WHERE f = f", 8, 3),
    ("SELECT * FROM nums WHERE f IN (0.5, 1.5)", 2, 3),
    ("SELECT * FROM nums WHERE f NOT IN (0.5)", 7, 3),
    ("SELECT * FROM nums WHERE f NOT IN (0.5, 1.5)", 6, 3),
    ("SELECT * FROM nums WHERE f IN ()", 0, 3),
    ("SELECT * FROM nums WHERE f NOT IN ()", 10, 3),
    ("SELECT * FROM nums WHERE k IN ()", 0, 3),
    ("SELECT * FROM nums WHERE k NOT IN ()", 10, 3),
    ("SELECT * FROM nums WHERE k NOT IN (1, 2, 3)", 7, 3),
    ("SELECT * FROM nums WHERE s NOT IN ('a')", 6, 3),
    ("SELECT * FROM nums WHERE s IN ('a', 'b')", 7, 3),
    ("SELECT * FROM nums WHERE k % 2 = 0", 5, 3),
    ("SELECT * FROM nums WHERE f BETWEEN 1.0 AND 7.0", 4, 3),
    ("SELECT * FROM nums WHERE f NOT BETWEEN 1.0 AND 7.0", 6, 3),
    # --- joins: all six kinds ---------------------------------------
    ("SELECT sale_id, city FROM sales JOIN stores"
     " ON sales.store_id = stores.store_id", 8, 2),
    ("SELECT sale_id, city FROM sales INNER JOIN stores"
     " ON sales.store_id = stores.store_id", 8, 2),
    ("SELECT sale_id, city FROM sales, stores"
     " WHERE sales.store_id = stores.store_id", 8, 2),
    ("SELECT sale_id, city FROM sales LEFT JOIN stores"
     " ON sales.store_id = stores.store_id", 8, 2),
    ("SELECT name, oid FROM cust JOIN ords ON cust.cid = ords.cid",
     9, 2),
    ("SELECT name, oid FROM cust LEFT JOIN ords ON cust.cid = ords.cid",
     10, 2),
    ("SELECT name, oid FROM cust LEFT OUTER JOIN ords"
     " ON cust.cid = ords.cid", 10, 2),
    ("SELECT name, oid FROM cust RIGHT JOIN ords ON cust.cid = ords.cid",
     12, 2),
    ("SELECT name, oid FROM cust RIGHT OUTER JOIN ords"
     " ON cust.cid = ords.cid", 12, 2),
    ("SELECT name, oid FROM cust FULL JOIN ords ON cust.cid = ords.cid",
     13, 2),
    ("SELECT name, oid FROM cust FULL OUTER JOIN ords"
     " ON cust.cid = ords.cid", 13, 2),
    ("SELECT name FROM cust SEMI JOIN ords ON cust.cid = ords.cid",
     4, 1),
    ("SELECT name FROM cust ANTI JOIN ords ON cust.cid = ords.cid",
     1, 1),
    ("SELECT city FROM stores SEMI JOIN sales"
     " ON stores.store_id = sales.store_id", 3, 1),
    ("SELECT city FROM stores ANTI JOIN sales"
     " ON stores.store_id = sales.store_id", 0, 1),
    ("SELECT name, oid FROM cust RIGHT JOIN ords ON cust.cid = ords.cid"
     " WHERE total > 65.0", 6, 2),
    ("SELECT name, oid FROM cust LEFT JOIN ords ON cust.cid = ords.cid"
     " WHERE country = 'fr'", 1, 2),
    ("SELECT name, oid FROM cust JOIN ords ON cust.cid = ords.cid"
     " WHERE country = 'de'", 4, 2),
    ("SELECT name, oid FROM cust FULL JOIN ords ON cust.cid = ords.cid"
     " WHERE oid >= 0", 13, 2),
    ("SELECT name, total FROM cust JOIN ords ON cust.cid = ords.cid"
     " AND ords.total > 50.0", 4, 2),
    ("SELECT name, total FROM cust LEFT JOIN ords ON cust.cid = ords.cid"
     " AND ords.total > 50.0", 6, 2),
    ("SELECT sale_id, city FROM sales JOIN stores"
     " ON sales.store_id = stores.store_id WHERE region = 'north'", 5, 2),
    ("SELECT sale_id, city FROM sales JOIN stores"
     " ON sales.store_id = stores.store_id WHERE quantity > 4", 4, 2),
    ("SELECT sale_id, city FROM sales, stores"
     " WHERE sales.store_id = stores.store_id AND city = 'London'", 3, 2),
    ("SELECT a, name FROM void LEFT JOIN cust ON void.a = cust.cid",
     0, 2),
    ("SELECT name, a FROM cust LEFT JOIN void ON cust.cid = void.a",
     5, 2),
    ("SELECT name, a FROM cust RIGHT JOIN void ON cust.cid = void.a",
     0, 2),
    ("SELECT name, a FROM cust FULL JOIN void ON cust.cid = void.a",
     5, 2),
    ("SELECT name FROM cust SEMI JOIN void ON cust.cid = void.a", 0, 1),
    ("SELECT name FROM cust ANTI JOIN void ON cust.cid = void.a", 5, 1),
    ("SELECT s1.sale_id AS lo, s2.sale_id AS hi FROM sales s1 JOIN"
     " sales s2 ON s1.store_id = s2.store_id"
     " WHERE s1.sale_id < s2.sale_id", 7, 2),
    ("SELECT c.name, o.oid, s.city FROM cust c JOIN ords o"
     " ON c.cid = o.cid JOIN stores s ON c.cid = s.store_id", 7, 3),
    # --- subqueries: EXISTS / IN / scalar ---------------------------
    ("SELECT name FROM cust WHERE EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid)", 4, 1),
    ("SELECT name FROM cust WHERE NOT EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid)", 1, 1),
    ("SELECT name FROM cust WHERE EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid"
     " AND total >= 40.0)", 3, 1),
    ("SELECT name FROM cust WHERE EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid"
     " AND total > 100.0)", 1, 1),
    ("SELECT name FROM cust WHERE NOT EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid"
     " AND total > 100.0)", 4, 1),
    ("SELECT name FROM cust WHERE EXISTS (SELECT 1 FROM void)", 0, 1),
    ("SELECT name FROM cust WHERE NOT EXISTS (SELECT 1 FROM void)",
     5, 1),
    ("SELECT name FROM cust WHERE EXISTS (SELECT 1 FROM stores)", 5, 1),
    ("SELECT name FROM cust WHERE country = 'de' AND EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid)", 2, 1),
    ("SELECT name FROM cust WHERE cid IN (SELECT cid FROM ords)", 4, 1),
    ("SELECT name FROM cust WHERE cid NOT IN (SELECT cid FROM ords)",
     1, 1),
    ("SELECT name FROM cust WHERE cid IN"
     " (SELECT cid FROM ords WHERE total > 55.0)", 3, 1),
    ("SELECT name FROM cust WHERE cid NOT IN"
     " (SELECT cid FROM ords WHERE total > 55.0)", 2, 1),
    ("SELECT name FROM cust WHERE cid IN (SELECT a FROM void)", 0, 1),
    ("SELECT name FROM cust WHERE cid NOT IN (SELECT a FROM void)",
     5, 1),
    ("SELECT k FROM nums WHERE k IN (SELECT cid FROM ords)", 6, 1),
    ("SELECT k FROM nums WHERE k NOT IN (SELECT cid FROM ords)", 4, 1),
    ("SELECT oid FROM ords WHERE item IN"
     " (SELECT product FROM sales WHERE product = 'apple')", 0, 1),
    ("SELECT oid FROM ords WHERE cid IN"
     " (SELECT cid FROM cust WHERE country = 'us')", 5, 1),
    ("SELECT oid FROM ords WHERE cid NOT IN (SELECT cid FROM cust)",
     3, 1),
    ("SELECT oid FROM ords WHERE total > (SELECT avg(total) FROM ords)",
     6, 1),
    ("SELECT oid FROM ords WHERE total >= (SELECT max(total) FROM ords)",
     1, 1),
    ("SELECT oid FROM ords WHERE total < (SELECT min(total) FROM ords)"
     " OR total > 0.0", 12, 1),
    ("SELECT name, (SELECT max(total) FROM ords) AS top FROM cust",
     5, 2),
    ("SELECT name, (SELECT count(*) FROM ords) AS n FROM cust", 5, 2),
    ("SELECT oid, total - (SELECT avg(total) FROM ords) AS delta"
     " FROM ords", 12, 2),
    ("SELECT sale_id FROM sales WHERE quantity >"
     " (SELECT avg(quantity) FROM sales)", 4, 1),
    ("SELECT sale_id FROM sales WHERE price <"
     " (SELECT avg(price) FROM sales WHERE product = 'apple')", 1, 1),
    ("SELECT k FROM nums WHERE f > (SELECT avg(f) FROM nums"
     " WHERE f < 2.0)", 7, 1),
    ("SELECT oid FROM ords WHERE total IN"
     " (SELECT total FROM ords o2 WHERE o2.cid = ords.cid)", 12, 1),
    ("SELECT name FROM cust WHERE cid IN"
     " (SELECT cid FROM ords WHERE item = 'z')", 3, 1),
    ("SELECT name FROM cust WHERE cid NOT IN"
     " (SELECT cid FROM ords WHERE item = 'z')", 2, 1),
    # --- aggregation ------------------------------------------------
    ("SELECT count(*) AS n FROM sales", 1, 1),
    ("SELECT count(*) AS n FROM void", 1, 1),
    ("SELECT sum(quantity) AS q FROM sales", 1, 1),
    ("SELECT min(price) AS lo, max(price) AS hi FROM sales", 1, 2),
    ("SELECT avg(quantity) AS aq FROM sales", 1, 1),
    ("SELECT count(distinct product) AS p FROM sales", 1, 1),
    ("SELECT count(distinct store_id) AS s FROM sales", 1, 1),
    ("SELECT count(distinct item) AS i FROM ords", 1, 1),
    ("SELECT product, count(*) AS n FROM sales GROUP BY product", 3, 2),
    ("SELECT product, sum(quantity) AS q FROM sales GROUP BY product",
     3, 2),
    ("SELECT store_id, count(*) AS n FROM sales GROUP BY store_id",
     3, 2),
    ("SELECT store_id, sum(quantity) AS q, avg(price) AS p FROM sales"
     " GROUP BY store_id", 3, 3),
    ("SELECT store_id, product, count(*) AS n FROM sales"
     " GROUP BY store_id, product", 8, 3),
    ("SELECT product, min(price) AS lo, max(price) AS hi FROM sales"
     " GROUP BY product", 3, 3),
    ("SELECT product, sum(quantity) AS q FROM sales GROUP BY product"
     " HAVING sum(quantity) > 10", 2, 2),
    ("SELECT product, count(*) AS n FROM sales GROUP BY product"
     " HAVING count(*) > 2", 2, 2),
    ("SELECT store_id, sum(quantity) AS q FROM sales GROUP BY store_id"
     " HAVING sum(quantity) > 10", 2, 2),
    ("SELECT product, sum(quantity) AS q FROM sales"
     " WHERE store_id <> 1 GROUP BY product", 3, 2),
    ("SELECT month(sold_on) AS m, count(*) AS n FROM sales"
     " GROUP BY month(sold_on)", 4, 2),
    ("SELECT year(sold_on) AS y, sum(quantity) AS q FROM sales"
     " GROUP BY year(sold_on)", 1, 2),
    ("SELECT item, count(*) AS n FROM ords GROUP BY item", 3, 2),
    ("SELECT cid, sum(total) AS t FROM ords GROUP BY cid", 6, 2),
    ("SELECT cid, sum(total) AS t FROM ords GROUP BY cid"
     " HAVING sum(total) > 100.0", 5, 2),
    ("SELECT cid, count(*) AS n FROM ords WHERE total > 40.0"
     " GROUP BY cid", 5, 2),
    ("SELECT s, count(*) AS n FROM nums GROUP BY s", 4, 2),
    ("SELECT s, count(*) AS n FROM nums WHERE f > 4.0 GROUP BY s",
     4, 2),
    ("SELECT country, count(*) AS n FROM cust GROUP BY country", 3, 2),
    ("SELECT city, sum(quantity) AS q FROM sales JOIN stores"
     " ON sales.store_id = stores.store_id GROUP BY city", 3, 2),
    ("SELECT region, sum(quantity) AS q FROM sales JOIN stores"
     " ON sales.store_id = stores.store_id GROUP BY region", 2, 2),
    ("SELECT region, count(*) AS n FROM sales JOIN stores"
     " ON sales.store_id = stores.store_id GROUP BY region"
     " HAVING count(*) > 3", 1, 2),
    ("SELECT name, count(*) AS n FROM cust JOIN ords"
     " ON cust.cid = ords.cid GROUP BY name", 4, 2),
    ("SELECT name, sum(total) AS t FROM cust JOIN ords"
     " ON cust.cid = ords.cid GROUP BY name"
     " HAVING sum(total) > 100.0", 3, 2),
    ("SELECT sum(quantity * price) AS revenue FROM sales", 1, 1),
    ("SELECT product, sum(quantity * price) AS revenue FROM sales"
     " GROUP BY product", 3, 2),
    ("SELECT sum(total) AS t FROM ords WHERE cid IN"
     " (SELECT cid FROM cust)", 1, 1),
    ("SELECT count(*) AS n FROM cust WHERE EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid)", 1, 1),
    # --- ordering & limits ------------------------------------------
    ("SELECT sale_id FROM sales ORDER BY sale_id", 8, 1),
    ("SELECT sale_id FROM sales ORDER BY sale_id DESC", 8, 1),
    ("SELECT sale_id, quantity FROM sales ORDER BY quantity DESC,"
     " sale_id", 8, 2),
    ("SELECT sale_id FROM sales ORDER BY sale_id LIMIT 3", 3, 1),
    ("SELECT sale_id FROM sales ORDER BY sale_id LIMIT 3 OFFSET 6",
     2, 1),
    ("SELECT sale_id FROM sales ORDER BY sale_id LIMIT 20", 8, 1),
    ("SELECT sale_id FROM sales LIMIT 5", 5, 1),
    ("SELECT sale_id FROM sales LIMIT 0", 0, 1),
    ("SELECT sale_id FROM sales LIMIT 5 OFFSET 5", 3, 1),
    ("SELECT * FROM ords ORDER BY total DESC LIMIT 4", 4, 4),
    ("SELECT * FROM ords ORDER BY item, total DESC", 12, 4),
    ("SELECT product, sum(quantity) AS q FROM sales GROUP BY product"
     " ORDER BY q DESC", 3, 2),
    ("SELECT product, sum(quantity) AS q FROM sales GROUP BY product"
     " ORDER BY q DESC LIMIT 2", 2, 2),
    ("SELECT cid, sum(total) AS t FROM ords GROUP BY cid"
     " ORDER BY t DESC LIMIT 3", 3, 2),
    ("SELECT name, oid FROM cust RIGHT JOIN ords ON cust.cid = ords.cid"
     " ORDER BY oid", 12, 2),
    ("SELECT name, oid FROM cust FULL JOIN ords ON cust.cid = ords.cid"
     " ORDER BY oid LIMIT 5", 5, 2),
    ("SELECT k, f FROM nums ORDER BY f DESC LIMIT 4", 4, 2),
    ("SELECT * FROM void ORDER BY a LIMIT 3", 0, 2),
    # --- UNION ALL --------------------------------------------------
    ("SELECT sale_id FROM sales UNION ALL SELECT sale_id FROM sales",
     16, 1),
    ("SELECT product FROM sales UNION ALL SELECT city FROM stores",
     11, 1),
    ("SELECT sale_id FROM sales WHERE store_id = 1 UNION ALL"
     " SELECT sale_id FROM sales WHERE store_id = 2", 6, 1),
    ("SELECT cid FROM cust UNION ALL SELECT cid FROM ords", 17, 1),
    ("SELECT a FROM void UNION ALL SELECT k FROM nums", 10, 1),
    ("SELECT count(*) AS n FROM sales UNION ALL"
     " SELECT count(*) AS n FROM stores", 2, 1),
    ("SELECT name FROM cust WHERE country = 'de' UNION ALL"
     " SELECT name FROM cust WHERE country = 'us' UNION ALL"
     " SELECT name FROM cust WHERE country = 'fr'", 5, 1),
    ("SELECT sale_id FROM sales WHERE quantity > 4 UNION ALL"
     " SELECT store_id FROM stores", 7, 1),
    # --- derived tables ---------------------------------------------
    ("SELECT * FROM (SELECT sale_id, quantity FROM sales) t", 8, 2),
    ("SELECT q FROM (SELECT sum(quantity) AS q FROM sales) t", 1, 1),
    ("SELECT * FROM (SELECT product, sum(quantity) AS q FROM sales"
     " GROUP BY product) t WHERE q > 10", 2, 2),
    ("SELECT t.product FROM (SELECT DISTINCT product FROM sales) t",
     3, 1),
    ("SELECT * FROM (SELECT * FROM sales WHERE quantity > 4) t"
     " WHERE price > 2.0", 2, 6),
    ("SELECT big.product, stores.city FROM (SELECT product, store_id"
     " FROM sales WHERE quantity > 4) big JOIN stores"
     " ON big.store_id = stores.store_id", 4, 2),
    ("SELECT t.c FROM (SELECT cid, count(*) AS c FROM ords"
     " GROUP BY cid) t WHERE t.c > 1", 4, 1),
    ("SELECT * FROM (SELECT oid FROM ords WHERE total > 65.0) t", 6, 1),
    ("SELECT * FROM (SELECT name FROM cust WHERE cid IN"
     " (SELECT cid FROM ords)) t", 4, 1),
    ("SELECT * FROM (SELECT a FROM void) t", 0, 1),
    # --- mixed / regression shapes ----------------------------------
    ("SELECT sale_id FROM sales WHERE quantity > 4 AND product"
     " IN ('apple', 'pear')", 3, 1),
    ("SELECT sale_id FROM sales WHERE quantity > 4 OR product"
     " NOT IN ('apple', 'pear', 'plum')", 4, 1),
    ("SELECT name FROM cust WHERE cid IN (SELECT cid FROM ords)"
     " AND country = 'us'", 2, 1),
    ("SELECT name FROM cust WHERE cid IN (SELECT cid FROM ords)"
     " AND cid NOT IN (SELECT cid FROM ords WHERE item = 'z')", 1, 1),
    ("SELECT name FROM cust WHERE EXISTS"
     " (SELECT 1 FROM ords WHERE ords.cid = cust.cid AND item = 'x')"
     " AND NOT EXISTS (SELECT 1 FROM ords WHERE ords.cid = cust.cid"
     " AND item = 'y')", 0, 1),
    ("SELECT city FROM stores WHERE store_id IN"
     " (SELECT store_id FROM sales WHERE quantity > 6)", 2, 1),
    ("SELECT city FROM stores WHERE store_id NOT IN"
     " (SELECT store_id FROM sales WHERE quantity > 6)", 1, 1),
    ("SELECT count(*) AS n FROM cust FULL JOIN ords"
     " ON cust.cid = ords.cid", 1, 1),
    ("SELECT count(*) AS n FROM cust RIGHT JOIN ords"
     " ON cust.cid = ords.cid", 1, 1),
    ("SELECT name, count(*) AS n FROM cust RIGHT JOIN ords"
     " ON cust.cid = ords.cid GROUP BY name", 5, 2),
    ("SELECT item, count(*) AS n FROM cust RIGHT JOIN ords"
     " ON cust.cid = ords.cid WHERE total > 50.0 GROUP BY item", 3, 2),
    ("SELECT product, count(*) AS n FROM sales WHERE product LIKE 'p%'"
     " GROUP BY product ORDER BY n DESC", 2, 2),
    ("SELECT k, f FROM nums WHERE f NOT IN (0.5, 1.5) ORDER BY k",
     6, 2),
    ("SELECT s, count(*) AS n FROM nums WHERE f NOT IN ()"
     " GROUP BY s", 4, 2),
    ("SELECT oid FROM ords WHERE total > (SELECT avg(total) FROM ords)"
     " AND item IN ('x', 'z')", 4, 1),
    ("SELECT name FROM cust WHERE cid IN (SELECT cid FROM ords WHERE"
     " total > (SELECT avg(total) FROM ords))", 2, 1),
    ("SELECT sale_id FROM sales WHERE store_id IN (1, 2) AND sold_on"
     " >= DATE '2023-02-01' ORDER BY sale_id", 4, 1),
    ("SELECT DISTINCT item FROM ords WHERE cid IN"
     " (SELECT cid FROM cust)", 3, 1),
    ("SELECT max(total) AS m FROM ords WHERE cid NOT IN"
     " (SELECT cid FROM cust)", 1, 1),
    ("SELECT quantity, count(*) AS n FROM sales GROUP BY quantity",
     8, 2),
]


def canon_rows(table) -> list:
    """Rows as a sorted, NaN-normalized list — comparable across plan
    shapes (NaN breaks total ordering, so it maps to a marker)."""
    def fix(value):
        if isinstance(value, float) and math.isnan(value):
            return "__nan__"
        return value

    rows = [tuple(fix(v) for v in row) for row in table.to_rows()]
    return sorted(rows, key=repr)


def assert_byte_identical(a, b) -> None:
    assert a.schema == b.schema
    for name in a.schema.names:
        left, right = a.column(name), b.column(name)
        assert left.dtype == right.dtype, name
        if left.dtype.kind == "f":
            assert np.array_equal(left, right, equal_nan=True), name
        else:
            assert np.array_equal(left, right), name


@pytest.fixture(scope="module")
def warm_db():
    db = Database(catalog=build_catalog())
    yield db
    db.close()


@pytest.fixture(scope="module")
def proc_session():
    db = Database(catalog=build_catalog())
    runtime = db.shard_runtime(2)
    session = db.connect(executor=runtime)
    yield session, runtime
    db.close()


def case_id(case) -> str:
    sql = case[0]
    return sql[:60].replace(" ", "_")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_battery(case, warm_db, proc_session):
    sql, rows, cols = case
    cold = warm_db.sql(sql)
    assert (cold.table.num_rows, len(cold.table.schema.names)) \
        == (rows, cols), sql
    reference = canon_rows(cold.table)

    # warm: full graph unification, byte-identical result
    warm = warm_db.sql(sql)
    assert warm.record.num_inserted == 0, sql
    assert warm.record.num_matched > 0, sql
    assert_byte_identical(cold.table, warm.table)

    # engine-only, as bound: same multiset of rows
    snapshot = warm_db.catalog.snapshot()
    bare = execute_plan(warm_db.plan(sql, snapshot), snapshot)
    assert canon_rows(bare.table) == reference, sql

    # process-mode: same multiset of rows
    session, _ = proc_session
    remote = session.sql(sql)
    assert canon_rows(remote.table) == reference, sql


def test_battery_is_big_enough():
    assert len(CASES) >= 200
    assert len({sql for sql, _, _ in CASES}) == len(CASES)


def test_process_mode_engaged(proc_session):
    """Run after the battery: cold plans actually went remote."""
    _, runtime = proc_session
    assert runtime.stats["remote_queries"] > 0
