"""antsess: access-log sessionization and ant-based session clustering.

Each public name is imported from the module that defines it, such as
``antsess.logs.parse_log`` or ``antsess.antclust.run``; importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
