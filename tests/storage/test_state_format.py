"""What a checkpoint stores: live table rows as they are, no previews.

``data/format1`` is a data directory checkpointed by the earlier writer,
which tagged date, datetime and decimal cells as 2-lists
(``["@d", "2013-02-11"]``) and stored every dataset's preview.  It must
still restore, with the same rows and types.
"""

import datetime as dt
import json
import os
import shutil
from decimal import Decimal

from repro.core.sqlshare import SQLShare
from repro.engine.types import SQLType
from repro.storage import StorageManager, state_digest
from repro.storage.serialize import json_default, platform_to_state

FORMAT1 = os.path.join(os.path.dirname(__file__), "data", "format1")

OBS = [
    (1, "A", dt.date(2013, 2, 11), dt.datetime(2013, 2, 11, 8, 30)),
    (2, "B", dt.date(2013, 3, 1), dt.datetime(2013, 3, 1, 17, 5, 10)),
    (3, "C", None, dt.datetime(2013, 4, 9, 0, 0)),
]
COST = [("A", Decimal("12.50"), dt.date(2013, 2, 11)), ("B", Decimal("0.125"), None)]


def _load(platform):
    platform.upload("alice", "obs",
                    "id,site,taken_on,logged_at\n"
                    "1,A,2013-02-11,2013-02-11 08:30:00\n"
                    "2,B,2013-03-01,2013-03-01 17:05:10\n"
                    "3,C,,2013-04-09 00:00:00\n")
    platform.create_dataset("alice", "late",
                            "SELECT id, taken_on FROM [obs] WHERE id > 1")
    platform.save_result_table(
        "alice", "mydb_alice_cost",
        [("site", SQLType.VARCHAR), ("cost", SQLType.DECIMAL),
         ("on_day", SQLType.DATE)], COST)


def _assert_restored(platform):
    assert platform.run_query("alice", "SELECT * FROM [obs]").rows == OBS
    assert platform.run_query("alice", "SELECT * FROM [mydb_alice_cost]").rows == COST
    assert platform.preview("alice", "late") == (
        ["id", "taken_on"], [(2, dt.date(2013, 3, 1)), (3, None)])


def test_snapshot_of_the_tagged_cell_format_restores(tmp_path):
    data_dir = str(tmp_path / "data")
    shutil.copytree(FORMAT1, data_dir)
    manager = StorageManager(data_dir)
    platform, report = manager.recover()
    assert report.snapshot_path is not None
    assert report.records_replayed == 0
    _assert_restored(platform)
    manager.close()


def test_checkpoint_round_trips_dates_and_decimals(tmp_path):
    manager = StorageManager(str(tmp_path))
    platform = manager.attach(SQLShare())
    _load(platform)
    manager.checkpoint()
    expected = state_digest(platform)
    manager.close()
    manager = StorageManager(str(tmp_path))
    recovered, report = manager.recover()
    assert report.records_replayed == 0
    assert state_digest(recovered) == expected
    _assert_restored(recovered)
    manager.close()


def test_state_holds_live_rows_and_no_previews():
    platform = SQLShare()
    _load(platform)
    state = platform_to_state(platform)
    (obs,) = [table for table in state["engine"]["tables"]
              if table["name"] == platform.dataset("obs").base_table]
    table = platform.db.catalog.get_table(obs["name"])
    assert all(dumped is live for dumped, live in zip(obs["rows"], table.rows))
    assert all(not key.startswith("preview") for spec in state["datasets"]
               for key in spec)
    payload = json.dumps(state, default=json_default)
    assert '"@d"' not in payload and '"@dt"' not in payload and '"@n"' not in payload
    assert '{"__date__": "2013-02-11"}' in payload
