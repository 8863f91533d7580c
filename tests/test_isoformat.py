"""`ingest.fromisoformat`, which reads every timestamp and date of the
feeds, observations.csv and the settings, accepts the texts that Python
3.10's fromisoformat accepts, and no other, on every Python version.

The table needs only the stdlib, so it also runs as a script that prints
each text's outcome; the output is the same under every version:

    PYTHONPATH=src python tests/test_isoformat.py
"""

import sys
from datetime import date, datetime

from delaytree.ingest import fromisoformat

# (type, text, whether Python 3.10's fromisoformat accepts it)
TABLE = [
    (datetime, "2016-08-22T07:05", True),
    (datetime, "2016-08-22 07:05", True),
    (datetime, "2016-08-22-07:05", True),  # any one character between date and time
    (datetime, "2016-08-22é07:05", True),
    (datetime, "2016-08-22", True),
    (datetime, "2016-08-22T07", True),
    (datetime, "2016-08-22T07:05:06", True),
    (datetime, "2016-08-22T07:05:06.123", True),
    (datetime, "2016-08-22T07:05:06.123456", True),
    (datetime, "2016-08-22T07:05:06:123", True),
    (datetime, "2016-08-22T07.123", True),
    (datetime, "2016-08-22T07:05.123456", True),
    (datetime, "2016-08-22T07:05\x00", True),
    (datetime, "2016-08-22T07:05+05:00", True),
    (datetime, "2016-08-22T07:05-05:00:30", True),
    (datetime, "2016-08-22T07:05:06.123+05:00:00.123456", True),
    (datetime, "2016-08-22T07X+05:00", True),
    (datetime, "2016-08-22T07:05:06.123X+05:00", False),
    (datetime, "2016-08-22T07:05:06.1", False),  # read by Python 3.11 and later
    (datetime, "2016-08-22T07:05:06.1234", False),  # 3.11+
    (datetime, "2016-08-22T07:05:06,123", False),  # 3.11+
    (datetime, "20160822T0705", False),  # 3.11+
    (datetime, "2016-08-22T0705", False),  # 3.11+
    (datetime, "2016-W34-1T07:05", False),  # 3.11+
    (datetime, "20160822", False),  # 3.11+
    (datetime, "2016-08-22T07:05Z", False),  # 3.11+
    (datetime, "2016-08-22T07:05+05", False),  # 3.11+
    (datetime, "2016-08-22T07:05+0500", False),  # 3.11+
    (datetime, "2016-08-22T", False),
    (datetime, "2016-08-22T07:05 ", False),
    (datetime, "2016-08-22T24:00", False),
    (datetime, "2016-02-30T07:05", False),
    (datetime, "2016-08-22T07:05+24:00", False),
    (datetime, "2016-8-22T07:05", False),
    (datetime, "٢016-08-22T07:05", False),
    (datetime, "not-a-date", False),
    (datetime, "", False),
    (date, "2016-09-05", True),
    (date, "20160905", False),  # 3.11+
    (date, "2016-W36-1", False),  # 3.11+
    (date, "2016-09-05T07:05", False),
    (date, "2016-9-05", False),
    (date, "2016-02-30", False),
]


def accepts(cls, text: str) -> bool:
    try:
        fromisoformat(cls, text)
    except ValueError:
        return False
    return True


def test_fromisoformat_accepts_the_texts_python_3_10_accepts():
    for cls, text, accepted in TABLE:
        assert accepts(cls, text) is accepted, (cls.__name__, text)
        if sys.version_info < (3, 11):  # the table is 3.10's own behaviour
            try:
                cls.fromisoformat(text)
            except ValueError:
                assert not accepted, (cls.__name__, text)
            else:
                assert accepted, (cls.__name__, text)


if __name__ == "__main__":
    for cls, text, _ in TABLE:
        print(cls.__name__, repr(text), "accept" if accepts(cls, text) else "reject")
