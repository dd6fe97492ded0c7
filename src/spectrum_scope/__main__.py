from .cli import script_main

script_main()
